package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration.
//
// On a shared host the speed of one CPU changes from minute to minute
// with what the other tenants run beside it (the same core's other
// hyperthread, the shared caches and memory bandwidth), by 40% between
// two runs a few minutes apart. Steal time is left out of CPU time,
// but this is not steal: the same instructions take longer. So every
// timed metric is reported at a fixed reference speed: the benchmark
// times a fixed kernel that shares no code with the mapper right
// beside the work it measures, and scales the work's CPU time by
// calibRefMS over the kernel's time. A change to the mapper moves the
// work and not the kernel, so it moves the metric in full; a slower
// machine moves both. The unscaled figures and the speed samples are
// in the run report.

// calibRefMS is the kernel's CPU time, in ms, that the reported times
// are scaled to: about its time inside a run on a 2-vCPU Xeon VM.
const calibRefMS = 6.0

// calibNodes is the size of the kernel's graph.
const calibNodes = 1 << 15

// calibState is the kernel's working memory, allocated once so that a
// kernel run allocates nothing and neither pays for nor triggers a
// garbage collection.
type calibState struct {
	fanin  [][2]int32
	label  []int32
	table  map[[2]int32]int32
	sorted []int32
	rng    *rand.Rand
}

var calib = &calibState{
	fanin:  make([][2]int32, calibNodes),
	label:  make([]int32, calibNodes),
	table:  make(map[[2]int32]int32, calibNodes),
	sorted: make([]int32, calibNodes),
	rng:    rand.New(rand.NewSource(1)),
}

// kernel builds a structurally hashed random DAG, the way a subject
// graph is built, labels it in topological order and sorts the labels.
// It returns a checksum so that nothing is optimized away.
func (c *calibState) kernel() int32 {
	c.rng.Seed(1)
	clear(c.table)
	const inputs = 64
	n := int32(inputs)
	for n < calibNodes {
		a, b := c.rng.Int31n(n), c.rng.Int31n(n)
		k := [2]int32{min(a, b), max(a, b)}
		if _, ok := c.table[k]; ok {
			continue
		}
		c.table[k] = n
		c.fanin[n] = k
		n++
	}
	for i := int32(inputs); i < calibNodes; i++ {
		f := c.fanin[i]
		c.label[i] = 1 + max(c.label[f[0]], c.label[f[1]])
	}
	for i := range c.sorted {
		c.sorted[i] = c.label[i]*7919 ^ int32(i)
	}
	slices.Sort(c.sorted)
	return c.sorted[calibNodes/2]
}

// speedSample runs the kernel three times and returns the median CPU
// time of one run, in ms. The time is the calling thread's, with the
// goroutine locked to it, so that a garbage collection the work left
// running, which the runtime schedules on other threads meanwhile,
// does not count against the kernel.
func speedSample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var t [3]float64
	for i := range t {
		c0 := threadCPU()
		calib.kernel()
		t[i] = ms(threadCPU() - c0)
	}
	slices.Sort(t[:])
	return t[1]
}

// threadCPU is the CPU time the calling thread has used, from
// CLOCK_THREAD_CPUTIME_ID (Linux), which unlike getrusage's
// RUSAGE_THREAD counts the running time slice to the nanosecond.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// speedMeter spreads kernel samples through a stretch of work, at most
// one per calibEvery of wall time. The work between two samples is
// scaled to the reference speed by the mean of the two.
type speedMeter struct {
	samples []float64
	at      time.Time // when the last sample was taken
	// wall and cpu are the time the samples took, for the caller to
	// leave out of the work's totals.
	wall, cpu time.Duration
}

const calibEvery = 250 * time.Millisecond

// due reports whether the last sample is calibEvery old.
func (m *speedMeter) due() bool { return time.Since(m.at) >= calibEvery }

// sample takes a sample and returns the factor that scales the CPU
// time of the work since the previous one to the reference speed:
// multiply a time by it, divide a rate.
func (m *speedMeter) sample() float64 {
	t0, c0 := time.Now(), cpuNow()
	s := speedSample()
	m.wall += time.Since(t0)
	m.cpu += cpuNow() - c0
	prev := s
	if n := len(m.samples); n > 0 {
		prev = m.samples[n-1]
	}
	m.samples = append(m.samples, s)
	m.at = time.Now()
	return calibRefMS / ((prev + s) / 2)
}
