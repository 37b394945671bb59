package main

import (
	"fmt"
	"math"
	"runtime"

	"dagcover"
)

// outcome accumulates a run's op counts, failures, wrong outputs and
// metric values.
type outcome struct {
	attempted int
	failed    int
	// failures maps an op key to the error it failed with (first seen).
	failures map[string]string
	// wrong lists every output that failed a check; any entry makes
	// the run incorrect.
	wrong []string
	// digests maps each distinct output's key to its sha256.
	digests map[string]string
	values  map[string]float64
	// report holds extra detail for the run report file.
	report map[string]any
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]string{}, digests: map[string]string{}, values: map[string]float64{}, report: map[string]any{}}
}

func (o *outcome) wrongf(format string, args ...any) {
	if len(o.wrong) < 100 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// checkRef checks one reference-pass output in full: a failed op must
// be one with no committed digest (a known failure), the op's own
// verification must have passed, static timing must reproduce the
// reported delay, and the netlist's sha256 must match its digest.
func (o *outcome) checkRef(key string, out *opOut, err error) {
	if err != nil {
		// A digests.json that does not parse is reported by
		// checkDigest; here it only means no digest to contradict.
		if want, _ := expected(key); want != "" {
			o.wrongf("%s: failed (%v) but the committed digest says it maps", key, err)
		}
		o.failures[key] = err.Error()
		return
	}
	if out.wrong != nil {
		o.wrongf("%s: %v", key, out.wrong)
		return
	}
	if err := checkTiming(out.res, out.dm); err != nil {
		o.wrongf("%s: %v", key, err)
	}
	o.digests[key] = out.sha
	if derr := checkDigest(key, out.sha, out.verified); derr != nil {
		o.wrongf("%v", derr)
	}
}

// checkTiming runs static timing analysis on a mapped netlist and
// compares its worst arrival with the delay the mapper reported.
func checkTiming(res *dagcover.MapResult, dm dagcover.DelayModel) error {
	rep, err := dagcover.AnalyzeTiming(res.Netlist, dm, 0)
	if err != nil {
		return fmt.Errorf("timing analysis: %w", err)
	}
	if math.Abs(rep.Delay-res.Delay) > 1e-9*math.Max(1, math.Abs(res.Delay)) {
		return fmt.Errorf("timing analysis gives delay %g, mapper reported %g", rep.Delay, res.Delay)
	}
	return nil
}

// checkTimed checks a timed op against its reference-pass record: the
// same error, or the same netlist bytes and reported delay.
func (o *outcome) checkTimed(key string, ref *refOp, out *opOut, err error) {
	o.attempted++
	switch {
	case err != nil:
		o.failed++
		if ref.err == nil || ref.err.Error() != err.Error() {
			o.wrongf("%s: failed with %v, reference pass gave %v", key, err, ref.err)
		}
	case ref.err != nil:
		o.wrongf("%s: mapped, but the reference pass failed with %v", key, ref.err)
	case out.wrong != nil:
		o.wrongf("%s: %v", key, out.wrong)
	case out.sha != ref.out.sha || out.res.Delay != ref.out.res.Delay:
		o.wrongf("%s: output differs from the reference pass", key)
	}
}

// refCounts sets the deterministic per-pass counts from the reference
// pass.
func (o *outcome) refCounts(ref map[*batchOp]*refOp) {
	var nodes, patterns, cells, dup, hits, misses, written int
	for _, r := range ref {
		if r.err != nil {
			continue
		}
		res := r.out.res
		nodes += r.out.nodes
		patterns += res.PatternsTried
		cells += res.Cells
		dup += res.DuplicatedNodes
		hits += res.MemoHits
		misses += res.MemoMisses
		written += r.out.outBytes
	}
	o.values["subject.nodes"] = float64(nodes)
	o.values["core.patterns_tried"] = float64(patterns)
	o.values["core.cells"] = float64(cells)
	o.values["core.duplicated_nodes"] = float64(dup)
	o.values["core.memo_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	o.values["blif.write_bytes"] = float64(written)
}

// runtimeDelta adds the runtime.* metrics between two MemStats
// snapshots.
func (o *outcome) runtimeDelta(a, b *runtime.MemStats) {
	o.values["runtime.alloc_mb"] += float64(b.TotalAlloc-a.TotalAlloc) / 1e6
	o.values["runtime.gc_cycles"] += float64(b.NumGC - a.NumGC)
	o.values["runtime.gc_pause_ms"] += float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
}
