package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"dagcover"
)

// setupPerGroup is how many set-ups one timed set-up group runs back
// to back. One set-up compiles the workload's libraries in a few tens
// of milliseconds, short enough for scheduler noise to move a single
// one by a quarter; a group lasts a few hundred.
const setupPerGroup = 10

// refSetupGroups is how many set-up groups run spread through the
// reference pass.
const refSetupGroups = 3

// batchOp is one distinct operation of a batch workload. A pass runs
// every op once.
type batchOp struct {
	key string // "<input>|<library>|<mode>", the digest key
	run func(tr *tracer, op, root int) (*opOut, error)
	// verify, for ops that do not verify their own output, checks it
	// in full; -record uses it before committing a digest.
	verify func(out *opOut) error
}

// opOut is what one op produced.
type opOut struct {
	nodes    int
	sha      string
	res      *dagcover.MapResult
	dm       dagcover.DelayModel
	verified bool  // the op ran dagcover.Verify and it passed
	wrong    error // the op's own verification rejected the output
	inBytes  int
	outBytes int
	// ingestAllocs counts heap objects allocated by the ingest call
	// (traced runs only).
	ingestAllocs uint64
}

// batch is a workload that runs a fixed list of ops in whole passes.
type batch struct {
	ops []*batchOp
	// libs is the compilation of specs that the ops map with; set-up
	// fills it before the reference pass.
	libs  compiledLibs
	specs []libSpec
	// ratios, when set, derives delay_ratio and area_ratio from the
	// reference pass.
	ratios func(ref map[string]*opOut) (delay, area float64)
}

// refOp is the reference pass's record of one op.
type refOp struct {
	out *opOut
	err error
}

// runBatch runs a batch workload: set-up, the reference pass,
// then either the timed passes or the traced run.
func runBatch(b *batch, cfg *config) (*outcome, error) {
	o := newOutcome()
	if _, err := b.libs.compile(b.specs); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	st := &setupTimer{specs: b.specs, perLib: map[string][]float64{}}
	if err := st.group(); err != nil {
		return nil, err
	}

	order := append([]*batchOp(nil), b.ops...)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Reference pass: every op once, in seeded order, on one worker
	// against freshly compiled libraries, with every output checked in
	// full. It fills the memo tables before anything is timed and
	// gives the deterministic counts.
	t0 := time.Now()
	ref := map[*batchOp]*refOp{}
	for i, op := range order {
		out, err := op.run(nil, i, -1)
		ref[op] = &refOp{out: out, err: err}
		o.checkRef(op.key, out, err)
		if err == nil {
			// Timed ops are checked against the digest and delay alone;
			// the netlist itself need not stay on the heap.
			out.res.Netlist = nil
		}
		if (i+1)*refSetupGroups/len(order) > i*refSetupGroups/len(order) {
			t := time.Now()
			if err := st.group(); err != nil {
				return nil, err
			}
			t0 = t0.Add(time.Since(t))
		}
	}
	tRef := time.Since(t0)
	o.refCounts(ref)
	if b.ratios != nil {
		outs := map[string]*opOut{}
		for op, r := range ref {
			if r.err == nil {
				outs[op.key] = r.out
			}
		}
		o.values["delay_ratio"], o.values["area_ratio"] = b.ratios(outs)
	}
	o.values["compile.patterns"] = float64(b.libs.patterns())
	fmt.Fprintf(os.Stderr, "reference pass: %d ops in %.2fs\n", len(order), tRef.Seconds())

	share := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		st.record(o)
		return o, tracedBatch(o, order, ref, share, tRef, cfg)
	}

	// The timed passes run in up to three segments with a set-up group
	// after each, so that set-up samples the machine across the whole
	// run as the passes do.
	n := passes(share, tRef)
	segments := min(3, n)
	all := &phaseStats{}
	var peak uint64
	for k := 0; k < segments; k++ {
		hs := startHeapSampler()
		all.add(timedPasses(o, order, ref, split(n, segments, k), nil))
		peak = max(peak, hs.stop())
		if err := st.group(); err != nil {
			return nil, err
		}
	}
	st.record(o)
	o.values["peak_heap_mb"] = float64(peak) / 1e6
	o.values["cpu_ms.p50"] = opQuantile(all.cpu, 0.5)
	o.values["cpu_ms.p90"] = opQuantile(all.cpu, 0.9)
	o.values["nodes_per_s"] = quantile(all.rates, 0.5)
	o.values["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	fmt.Fprintf(os.Stderr, "timed: %d passes, %d ops in %.2fs wall, %.2fs CPU\n",
		n, all.ops, all.wall.Seconds(), all.cpuTime.Seconds())
	o.report["samples"] = map[string]int{"distinct_ops": len(all.cpu), "passes": len(all.rates)}
	o.report["cpu_wall_ratio"] = ratio(all.cpuTime.Seconds(), all.wall.Seconds())
	o.report["unscaled"] = map[string]float64{
		"nodes_per_s": quantile(all.rawRates, 0.5),
		"cpu_ms.p50":  opQuantile(all.rawCPU, 0.5),
		"cpu_ms.p90":  opQuantile(all.rawCPU, 0.9),
	}
	o.report["speed_samples_ms"] = all.speed
	return o, nil
}

// setupTimer samples a batch workload's set-up. Each group compiles
// the workload's libraries setupPerGroup times into throwaway sets, so
// the ops keep their compilation and its warm memo tables. Groups run
// before the reference pass, at refSetupGroups points through it (its
// time excludes them) and after every timed segment. setup_s is the
// median group's mean CPU time per set-up, compile.ms.<lib> each
// library's median compile CPU time.
type setupTimer struct {
	specs  []libSpec
	groups []float64 // at the reference speed
	raw    []float64
	perLib map[string][]float64
}

func (st *setupTimer) group() error {
	// Each group starts from a collected heap and leaves its garbage
	// collected, so that neither its time nor a timed phase's pays for
	// the other's.
	runtime.GC()
	before := speedSample()
	c0 := cpuNow()
	for i := 0; i < setupPerGroup; i++ {
		times, err := compiledLibs{}.compile(st.specs)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		for name, d := range times {
			st.perLib[name] = append(st.perLib[name], ms(d))
		}
	}
	raw := (cpuNow() - c0).Seconds() / setupPerGroup
	f := calibRefMS / ((before + speedSample()) / 2)
	st.groups = append(st.groups, raw*f)
	st.raw = append(st.raw, raw)
	runtime.GC()
	return nil
}

func (st *setupTimer) record(o *outcome) {
	o.values["setup_s"] = quantile(st.groups, 0.5)
	o.report["setup_groups_s"] = st.groups
	o.report["setup_groups_unscaled_s"] = st.raw
	for name, xs := range st.perLib {
		o.values["compile.ms."+name] = quantile(xs, 0.5)
	}
}

// passes is how many whole passes fill share, judging by the
// reference pass; at least one.
func passes(share, tRef time.Duration) int {
	return max(1, int(math.Round(float64(share)/float64(tRef))))
}

// split returns the share of n passes that segment k of parts runs.
func split(n, parts, k int) int { return n*(k+1)/parts - n*k/parts }

// phaseStats summarizes a run of timed passes. cpu and rates are at
// the reference speed (see calib.go); rawCPU and rawRates as measured.
type phaseStats struct {
	ops      int
	cpu      map[*batchOp][]float64 // CPU ms of each successful run of each op
	rates    []float64              // subject nodes per CPU second of the ops, one per pass
	rawCPU   map[*batchOp][]float64
	rawRates []float64
	speed    []float64 // the calibration kernel's samples, ms
	nodes    int
	// wall and cpuTime are the passes' wall and process CPU time,
	// checks included and calibration left out.
	wall, cpuTime time.Duration
	// opCPU sums the ops' CPU time at the reference speed, ms.
	opCPU float64
	// verifyNodes sums the subject nodes of ops that ran a verify.
	verifyNodes int
	readBytes   int
	readAllocs  uint64
}

// timedPasses runs n passes over order, one op at a time, and checks
// every output against the reference pass. Calibration samples are
// taken between ops, and each op's CPU time is scaled by the two
// samples around it.
func timedPasses(o *outcome, order []*batchOp, ref map[*batchOp]*refOp, n int, tr *tracer) *phaseStats {
	st := &phaseStats{cpu: map[*batchOp][]float64{}, rawCPU: map[*batchOp][]float64{}}
	type opTime struct {
		op *batchOp
		ms float64
		ok bool
	}
	start, cpuStart := time.Now(), cpuNow()
	var meter speedMeter
	meter.sample()
	for p := 0; p < n; p++ {
		var pending []opTime
		var passCPU, rawCPU float64 // ms
		passNodes := 0
		flush := func() {
			f := meter.sample()
			for _, t := range pending {
				passCPU += t.ms * f
				rawCPU += t.ms
				if t.ok {
					st.cpu[t.op] = append(st.cpu[t.op], t.ms*f)
					st.rawCPU[t.op] = append(st.rawCPU[t.op], t.ms)
				}
			}
			pending = pending[:0]
		}
		for i, op := range order {
			if meter.due() {
				flush()
			}
			id := p*len(order) + i
			root := tr.begin(id, -1, "op")
			c0 := cpuNow()
			out, err := op.run(tr, id, root)
			pending = append(pending, opTime{op, ms(cpuNow() - c0), err == nil})
			c := tr.begin(id, root, "check.output")
			o.checkTimed(op.key, ref[op], out, err)
			if err == nil {
				passNodes += out.nodes
				if out.verified {
					st.verifyNodes += out.nodes
				}
				st.readBytes += out.inBytes
				st.readAllocs += out.ingestAllocs
			}
			st.ops++
			tr.end(c)
			tr.end(root)
		}
		flush()
		st.opCPU += passCPU
		st.rates = append(st.rates, ratio(float64(passNodes), passCPU/1e3))
		st.rawRates = append(st.rawRates, ratio(float64(passNodes), rawCPU/1e3))
		st.nodes += passNodes
	}
	st.speed = meter.samples
	st.wall, st.cpuTime = time.Since(start)-meter.wall, cpuNow()-cpuStart-meter.cpu
	return st
}

// add folds another run's totals into st.
func (st *phaseStats) add(p *phaseStats) {
	st.ops += p.ops
	if st.cpu == nil {
		st.cpu, st.rawCPU = map[*batchOp][]float64{}, map[*batchOp][]float64{}
	}
	for op, xs := range p.cpu {
		st.cpu[op] = append(st.cpu[op], xs...)
		st.rawCPU[op] = append(st.rawCPU[op], p.rawCPU[op]...)
	}
	st.rates = append(st.rates, p.rates...)
	st.rawRates = append(st.rawRates, p.rawRates...)
	st.speed = append(st.speed, p.speed...)
	st.nodes += p.nodes
	st.wall += p.wall
	st.cpuTime += p.cpuTime
	st.opCPU += p.opCPU
	st.verifyNodes += p.verifyNodes
	st.readBytes += p.readBytes
	st.readAllocs += p.readAllocs
}

// opQuantile is the q-quantile, over the distinct ops that succeeded,
// of each op's median CPU time over the passes. Taking each op's
// median first keeps one pass's garbage collection, which lands on
// whichever op happens to trigger it, out of the quantile.
func opQuantile(byOp map[*batchOp][]float64, q float64) float64 {
	var med []float64
	for _, xs := range byOp {
		med = append(med, quantile(xs, 0.5))
	}
	return quantile(med, q)
}

// tracedBatch is the traced run: the same passes once untraced and
// once traced, for the tracing overhead, the per-layer metrics and the
// self-time table.
func tracedBatch(o *outcome, order []*batchOp, ref map[*batchOp]*refOp, share, tRef time.Duration, cfg *config) error {
	// Untraced and traced passes alternate, so that drift on the
	// machine lands on both sides of the overhead comparison.
	n := passes(share/2, tRef)
	tr := newTracer()
	var m0, m1 runtime.MemStats
	plain, traced := &phaseStats{}, &phaseStats{}
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&m0)
		plain.add(timedPasses(o, order, ref, 1, nil))
		runtime.ReadMemStats(&m1)
		o.runtimeDelta(&m0, &m1)
		traced.add(timedPasses(o, order, ref, 1, tr))
	}
	// The overhead is taken in the ops' CPU time at the reference
	// speed, which the host's other tenants do not move.
	o.values["trace.overhead_ms"] = traced.opCPU - plain.opCPU
	o.values["runtime.cpu_wall_ratio"] = ratio(plain.cpuTime.Seconds(), plain.wall.Seconds())
	o.values["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))

	perCall := func(names ...string) (float64, int) {
		var total time.Duration
		count := 0
		for _, name := range names {
			d, c := tr.durations(name)
			total += d
			count += c
		}
		return ms(total), count
	}
	mean := func(total float64, n int) float64 { return ratio(total, float64(n)) }

	readMS, reads := perCall("blif.read", "blif.stream")
	o.values["blif.read_ms"] = mean(readMS, reads)
	o.values["blif.read_mb_per_s"] = ratio(float64(traced.readBytes)/1e6, readMS/1e3)
	o.values["blif.read_allocs_per_node"] = ratio(float64(traced.readAllocs), float64(traced.nodes))
	o.values["subject.build_ms"] = mean(perCall("subject.build"))
	o.values["subject.digest_ms"] = mean(perCall("subject.digest"))

	// Phase spans exist only for maps that succeeded.
	label, dagMaps := perCall("core.label")
	area, _ := perCall("core.area")
	cover, _ := perCall("core.cover")
	emit, _ := perCall("core.emit")
	o.values["core.label_ms"] = mean(label, dagMaps)
	o.values["core.cover_ms"] = mean(area+cover, dagMaps)
	o.values["core.emit_ms"] = mean(emit, dagMaps)
	o.values["treemap.ms"] = mean(perCall("treemap.map"))
	verifyMS, verifies := perCall("verify")
	o.values["verify.ms"] = mean(verifyMS, verifies)
	o.values["verify.ms_per_node"] = ratio(verifyMS, float64(traced.verifyNodes))
	o.values["blif.write_ms"] = mean(perCall("blif.write"))

	self := tr.selfTimes()
	fmt.Fprintf(os.Stderr, "self time per layer, %d traced pass(es) on one worker:\n", n)
	// Only the named layers count towards the sum: time that no layer
	// span explains must show as a shortfall.
	named := printSelfTimes(os.Stderr, self, traced.wall)
	frac := ratio(float64(named), float64(traced.wall))
	o.values["trace.layer_sum_frac"] = frac
	fmt.Fprintf(os.Stderr, "tracing overhead: %.2f ms of op CPU at the reference speed (traced %.2f ms, %.2f ms wall; untraced %.2f ms, %.2f ms wall)\n",
		o.values["trace.overhead_ms"], traced.opCPU, ms(traced.wall), plain.opCPU, ms(plain.wall))
	selfMS := map[string]float64{}
	for l, d := range self {
		selfMS[l] = ms(d)
	}
	o.report["self_ms"] = selfMS
	o.report["traced_wall_ms"] = ms(traced.wall)
	o.report["untraced_wall_ms"] = ms(plain.wall)
	if math.Abs(frac-1) > 0.05 {
		o.wrongf("trace: named layer self times sum to %.1f%% of wall, outside 5%%", 100*frac)
	}
	return tr.writeChrome(cfg.tracePath())
}

// heapSampler polls the live heap and keeps the peak.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak
}

// allocCount is the process's cumulative heap object allocations.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
