package main

import (
	"math"
	"sort"
)

// metricDef is one entry of the benchmark's metric catalogue. The
// catalogue is the single declaration behind BENCHMARK.json (a test
// checks the two agree), the printed report and the result line.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is, for end-to-end metrics, the share of the baseline
	// median by which the metric may worsen before a change counts as a
	// regression. Per-layer metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the mapper sees. Every workload
// reports all of them, with tracing off. The times are CPU time (see
// cpuNow): set-up, the work per op or request, and the throughput
// that follows from it, as the paper reports CPU time.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "nodes_per_s", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "cpu_ms.p50", Unit: "ms", Better: "lower", Bound: 0.22},
	{Name: "cpu_ms.p90", Unit: "ms", Better: "lower", Bound: 0.22},
}

// perLayer are the single-layer metrics of the traced run, grouped by
// layer (provenance.json maps each layer to its module and to the
// end-to-end metrics it should move). A layer a workload never calls
// reports 0.
var perLayer = []metricDef{
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "delay_ratio", Unit: "ratio", Better: "lower"},
	{Name: "area_ratio", Unit: "ratio", Better: "lower"},

	{Name: "blif.read_ms", Unit: "ms", Better: "lower"},
	{Name: "blif.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "blif.read_allocs_per_node", Unit: "count", Better: "lower"},

	{Name: "subject.build_ms", Unit: "ms", Better: "lower"},
	{Name: "subject.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "subject.nodes", Unit: "count", Better: "lower"},

	{Name: "compile.ms.lib2", Unit: "ms", Better: "lower"},
	{Name: "compile.ms.44-1", Unit: "ms", Better: "lower"},
	{Name: "compile.ms.44-3", Unit: "ms", Better: "lower"},
	{Name: "compile.patterns", Unit: "count", Better: "higher"},

	{Name: "core.label_ms", Unit: "ms", Better: "lower"},
	{Name: "core.patterns_tried", Unit: "count", Better: "lower"},
	{Name: "core.memo_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.cover_ms", Unit: "ms", Better: "lower"},
	{Name: "core.emit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cells", Unit: "count", Better: "lower"},
	{Name: "core.duplicated_nodes", Unit: "count", Better: "lower"},

	{Name: "treemap.ms", Unit: "ms", Better: "lower"},

	{Name: "verify.ms", Unit: "ms", Better: "lower"},
	{Name: "verify.ms_per_node", Unit: "ms", Better: "lower"},

	{Name: "blif.write_ms", Unit: "ms", Better: "lower"},
	{Name: "blif.write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.resp_bytes", Unit: "bytes", Better: "lower"},

	{Name: "service.p50_ms.light", Unit: "ms", Better: "lower"},
	{Name: "service.p90_ms.light", Unit: "ms", Better: "lower"},
	{Name: "service.p50_ms.heavy", Unit: "ms", Better: "lower"},
	{Name: "service.p90_ms.heavy", Unit: "ms", Better: "lower"},
	{Name: "service.goodput_rps", Unit: "1/s", Better: "higher"},
	{Name: "service.queue_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "service.queue_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "service.elapsed_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "service.elapsed_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "service.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "service.gzip_ratio", Unit: "ratio", Better: "lower"},

	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.cpu_wall_ratio", Unit: "ratio", Better: "higher"},

	{Name: "gen.late_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_max", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.layer_sum_frac", Unit: "ratio", Better: "higher"},
}

// catalogue returns the metrics a run reports: the end-to-end set
// untraced, the per-layer set traced.
func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean is the geometric mean of positive ratios; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio divides, returning 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
