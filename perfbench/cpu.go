package main

import (
	"syscall"
	"time"
)

// cpuNow is the CPU time the process has used so far, over all its
// threads. The timed metrics start from CPU time rather than wall
// time, which on a shared host also counts the time the process waits
// for a CPU the host has given to someone else (steal); the kernel
// leaves that out of CPU time. Every workload runs on one P
// (GOMAXPROCS 1), so the CPU time around an op is the work of that op
// and the garbage collection it causes, with no other op overlapping
// it. calib.go then scales it to a reference machine speed.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
