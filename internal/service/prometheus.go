package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dagcover/internal/jobs"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled: the
// service is dependency-free by design, and the subset needed —
// counters, gauges, and fixed-bucket histograms — is small. Metric
// families are emitted in a stable order with sorted library labels,
// so scrapes are deterministic and the exposition test can golden the
// structure.

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	s.writeMetrics(&b)
	_, _ = w.Write([]byte(b.String()))
}

// writeMetrics renders the full exposition.
func (s *Server) writeMetrics(b *strings.Builder) {
	m := s.metrics

	family(b, "mapd_uptime_seconds", "gauge", "Seconds since the server started.")
	sample(b, "mapd_uptime_seconds", nil, time.Since(m.start).Seconds())

	bi := buildInfo()
	family(b, "mapd_build_info", "gauge", "Build identity of the running binary; value is always 1.")
	sample(b, "mapd_build_info", labels{{"go_version", bi.GoVersion}, {"version", bi.Version}}, 1)

	family(b, "mapd_requests_received_total", "counter", "Mapping requests received, before admission or parsing.")
	sample(b, "mapd_requests_received_total", nil, float64(m.total.Load()))

	family(b, "mapd_requests_total", "counter", "Mapping requests finished, by result.")
	for _, result := range resultLabels {
		sample(b, "mapd_requests_total", labels{{"result", result}}, float64(m.results[result].Load()))
	}

	family(b, "mapd_patterns_tried_total", "counter", "Pattern plans attempted by the matcher across all served mappings.")
	sample(b, "mapd_patterns_tried_total", nil, float64(m.patternsTried.Load()))

	family(b, "mapd_memo_hits_total", "counter", "Structural match-memo hits attributed to served mappings.")
	sample(b, "mapd_memo_hits_total", nil, float64(m.memoHits.Load()))
	family(b, "mapd_memo_misses_total", "counter", "Structural match-memo misses attributed to served mappings.")
	sample(b, "mapd_memo_misses_total", nil, float64(m.memoMisses.Load()))
	memo := s.cache.MemoStats()
	family(b, "mapd_memo_table_entries", "gauge", "Recipes held across all cached libraries' memo tables.")
	sample(b, "mapd_memo_table_entries", nil, float64(memo.Entries))
	family(b, "mapd_memo_evictions_total", "counter", "Memo recipes evicted across all cached libraries' tables.")
	sample(b, "mapd_memo_evictions_total", nil, float64(memo.Evictions))

	hits, misses, compiles := s.cache.Counters()
	family(b, "mapd_cache_hits_total", "counter", "Compiled-library cache hits.")
	sample(b, "mapd_cache_hits_total", nil, float64(hits))
	family(b, "mapd_cache_misses_total", "counter", "Compiled-library cache misses.")
	sample(b, "mapd_cache_misses_total", nil, float64(misses))
	family(b, "mapd_cache_compiles_total", "counter", "Library compilations performed (misses that completed).")
	sample(b, "mapd_cache_compiles_total", nil, float64(compiles))
	family(b, "mapd_cache_libraries", "gauge", "Compiled libraries currently cached.")
	sample(b, "mapd_cache_libraries", nil, float64(s.cache.Len()))

	running, queued := s.adm.depth()
	concurrency, capacity := s.adm.capacities()
	family(b, "mapd_queue_running", "gauge", "Mapping runs currently executing.")
	sample(b, "mapd_queue_running", nil, float64(running))
	family(b, "mapd_queue_queued", "gauge", "Requests waiting for a run slot.")
	sample(b, "mapd_queue_queued", nil, float64(queued))
	family(b, "mapd_queue_concurrency", "gauge", "Admission concurrency limit.")
	sample(b, "mapd_queue_concurrency", nil, float64(concurrency))
	family(b, "mapd_queue_capacity", "gauge", "Admission queue capacity.")
	sample(b, "mapd_queue_capacity", nil, float64(capacity))

	if s.store != nil {
		ss := s.store.Stats()
		family(b, "mapd_store_hits_total", "counter", "Artifact store hits (expensive generations skipped).")
		sample(b, "mapd_store_hits_total", nil, float64(ss.Hits))
		family(b, "mapd_store_misses_total", "counter", "Artifact store misses (artifact generated).")
		sample(b, "mapd_store_misses_total", nil, float64(ss.Misses))
		family(b, "mapd_store_writes_total", "counter", "Artifacts published to the store.")
		sample(b, "mapd_store_writes_total", nil, float64(ss.Writes))
		family(b, "mapd_store_write_errors_total", "counter", "Artifact publications that failed (generation still served).")
		sample(b, "mapd_store_write_errors_total", nil, float64(ss.WriteErrors))
		family(b, "mapd_store_evictions_total", "counter", "Artifacts evicted by the size-budgeted LRU GC.")
		sample(b, "mapd_store_evictions_total", nil, float64(ss.Evictions))
		family(b, "mapd_store_quarantined_total", "counter", "Corrupt artifacts quarantined (and transparently regenerated).")
		sample(b, "mapd_store_quarantined_total", nil, float64(ss.Quarantined))
		family(b, "mapd_store_objects", "gauge", "Artifacts currently on disk.")
		sample(b, "mapd_store_objects", nil, float64(ss.Objects))
		family(b, "mapd_store_bytes", "gauge", "Bytes of artifacts currently on disk.")
		sample(b, "mapd_store_bytes", nil, float64(ss.Bytes))
		family(b, "mapd_store_max_bytes", "gauge", "Artifact store GC budget in bytes.")
		sample(b, "mapd_store_max_bytes", nil, float64(ss.MaxBytes))
		family(b, "mapd_store_generation_seconds_total", "counter", "Wall time spent generating artifacts on store misses.")
		sample(b, "mapd_store_generation_seconds_total", nil, ss.GenSeconds)
		family(b, "mapd_store_generation_seconds_saved_total", "counter", "Recorded generation time of artifacts served as store hits.")
		sample(b, "mapd_store_generation_seconds_saved_total", nil, ss.SavedSeconds)
	}

	if s.resultCache != nil {
		rc := s.resultCache.stats()
		family(b, "mapd_result_cache_hits_total", "counter", "Whole-result cache hits, by tier (mem = in-process SLRU, disk = artifact store).")
		sample(b, "mapd_result_cache_hits_total", labels{{"tier", "mem"}}, float64(m.rcMemHits.Load()))
		sample(b, "mapd_result_cache_hits_total", labels{{"tier", "disk"}}, float64(m.rcDiskHits.Load()))
		family(b, "mapd_result_cache_misses_total", "counter", "Whole-result cache misses (engine runs that published a result).")
		sample(b, "mapd_result_cache_misses_total", nil, float64(m.rcMisses.Load()))
		family(b, "mapd_result_cache_coalesced_total", "counter", "Requests served by waiting on an identical concurrent request's run.")
		sample(b, "mapd_result_cache_coalesced_total", nil, float64(m.rcCoalesced.Load()))
		family(b, "mapd_result_cache_stores_total", "counter", "Mapping results published to the artifact store.")
		sample(b, "mapd_result_cache_stores_total", nil, float64(m.rcStores.Load()))
		family(b, "mapd_result_cache_store_errors_total", "counter", "Result publications that failed (the response was still served).")
		sample(b, "mapd_result_cache_store_errors_total", nil, float64(m.rcStoreErrors.Load()))
		family(b, "mapd_result_cache_entries", "gauge", "Results held by the in-memory cache.")
		sample(b, "mapd_result_cache_entries", nil, float64(rc.entries))
		family(b, "mapd_result_cache_bytes", "gauge", "Bytes of serialized results held by the in-memory cache.")
		sample(b, "mapd_result_cache_bytes", nil, float64(rc.bytes))
		family(b, "mapd_result_cache_max_bytes", "gauge", "In-memory result cache budget in bytes.")
		sample(b, "mapd_result_cache_max_bytes", nil, float64(rc.maxBytes))
	}

	family(b, "mapd_jobs_submitted_total", "counter", "Batch jobs accepted by POST /jobs.")
	sample(b, "mapd_jobs_submitted_total", nil, float64(m.jobs.submitted.Load()))
	family(b, "mapd_jobs_completed_total", "counter", "Batch jobs finished, by terminal state.")
	for _, jc := range []struct {
		state string
		v     uint64
	}{
		{"done", m.jobs.done.Load()},
		{"failed", m.jobs.failed.Load()},
		{"cancelled", m.jobs.cancelled.Load()},
	} {
		sample(b, "mapd_jobs_completed_total", labels{{"state", jc.state}}, float64(jc.v))
	}
	family(b, "mapd_jobs_evicted_total", "counter", "Jobs dropped from the store by TTL sweep or capacity eviction.")
	sample(b, "mapd_jobs_evicted_total", nil, float64(s.jobs.Evictions()))
	family(b, "mapd_jobs_current", "gauge", "Resident jobs in the store, by state.")
	counts := s.jobs.CountsByState()
	for _, state := range jobs.States() {
		sample(b, "mapd_jobs_current", labels{{"state", state.String()}}, float64(counts[state]))
	}
	family(b, "mapd_job_items_total", "counter", "Batch job items settled, by result.")
	for _, ic := range []struct {
		result string
		v      uint64
	}{
		{"ok", m.jobs.itemsOK.Load()},
		{"failed", m.jobs.itemsFailed.Load()},
		{"timeout", m.jobs.itemsTimeout.Load()},
		{"cancelled", m.jobs.itemsCancelled.Load()},
	} {
		sample(b, "mapd_job_items_total", labels{{"result", ic.result}}, float64(ic.v))
	}
	m.jobs.mu.Lock()
	itemLat := m.jobs.itemLatency.clone()
	m.jobs.mu.Unlock()
	family(b, "mapd_job_item_duration_seconds", "histogram", "Mapping latency per batch job item (mapped items only).")
	writeHistogramLabeled(b, "mapd_job_item_duration_seconds", nil, &itemLat)

	family(b, "mapd_phase_seconds_total", "counter", "Request wall time by phase, summed across requests.")
	for i, name := range phaseNames {
		sample(b, "mapd_phase_seconds_total", labels{{"phase", name}}, float64(m.phases[i].Load())/float64(time.Second))
	}

	// Flight recorder: runtime telemetry, burn rates, event ring, and
	// (when enabled) slow-request capture counters.
	rt := s.runtime.Latest()
	family(b, "mapd_go_goroutines", "gauge", "Live goroutines (runtime/metrics).")
	sample(b, "mapd_go_goroutines", nil, float64(rt.Goroutines))
	family(b, "mapd_go_gomaxprocs", "gauge", "Scheduler processor limit.")
	sample(b, "mapd_go_gomaxprocs", nil, float64(rt.GOMAXPROCS))
	family(b, "mapd_go_heap_inuse_bytes", "gauge", "Bytes occupied by live heap objects plus unswept spans.")
	sample(b, "mapd_go_heap_inuse_bytes", nil, float64(rt.HeapInuseBytes))
	family(b, "mapd_go_total_bytes", "gauge", "All memory mapped by the Go runtime.")
	sample(b, "mapd_go_total_bytes", nil, float64(rt.TotalBytes))
	family(b, "mapd_go_heap_allocs_bytes_total", "counter", "Cumulative bytes allocated on the heap.")
	sample(b, "mapd_go_heap_allocs_bytes_total", nil, float64(rt.HeapAllocsBytes))
	family(b, "mapd_go_gc_cycles_total", "counter", "Completed GC cycles.")
	sample(b, "mapd_go_gc_cycles_total", nil, float64(rt.GCCycles))
	family(b, "mapd_go_gc_pause_seconds", "gauge", "GC stop-the-world pause quantiles from the runtime histogram.")
	sample(b, "mapd_go_gc_pause_seconds", labels{{"quantile", "0.5"}}, rt.GCPauseP50)
	sample(b, "mapd_go_gc_pause_seconds", labels{{"quantile", "0.99"}}, rt.GCPauseP99)
	sample(b, "mapd_go_gc_pause_seconds", labels{{"quantile", "1"}}, rt.GCPauseMax)
	family(b, "mapd_go_sched_latency_seconds", "gauge", "Scheduler latency quantiles: time runnable goroutines waited for a thread.")
	sample(b, "mapd_go_sched_latency_seconds", labels{{"quantile", "0.5"}}, rt.SchedLatencyP50)
	sample(b, "mapd_go_sched_latency_seconds", labels{{"quantile", "0.99"}}, rt.SchedLatencyP99)
	sample(b, "mapd_go_sched_latency_seconds", labels{{"quantile", "1"}}, rt.SchedLatencyMax)

	family(b, "mapd_slo_burn_rate", "gauge", "Error-budget burn rate per rolling window (1 = exactly exhausting the budget).")
	for _, r := range s.burn.Rates(time.Now()) {
		sample(b, "mapd_slo_burn_rate", labels{{"window", r.Window}}, r.Rate)
	}
	family(b, "mapd_slo_goal", "gauge", "Availability goal behind the burn rates (fraction of good requests).")
	sample(b, "mapd_slo_goal", nil, s.burn.Goal())

	family(b, "mapd_events_recorded_total", "counter", "Wide events recorded into the /debug/events ring.")
	sample(b, "mapd_events_recorded_total", nil, float64(s.events.Total()))

	if s.diag != nil {
		captures, dropped, evictions := s.diag.Counters()
		diagFiles, diagBytes := s.diag.Usage()
		family(b, "mapd_diag_captures_total", "counter", "Diagnostics bundles published for slow or SLO-violating requests.")
		sample(b, "mapd_diag_captures_total", nil, float64(captures))
		family(b, "mapd_diag_dropped_total", "counter", "Diagnostics captures dropped by the rate limiter or write errors.")
		sample(b, "mapd_diag_dropped_total", nil, float64(dropped))
		family(b, "mapd_diag_evictions_total", "counter", "Diagnostics bundles evicted by the size-budgeted GC.")
		sample(b, "mapd_diag_evictions_total", nil, float64(evictions))
		family(b, "mapd_diag_bundles", "gauge", "Diagnostics bundles currently on disk.")
		sample(b, "mapd_diag_bundles", nil, float64(diagFiles))
		family(b, "mapd_diag_bytes", "gauge", "Bytes of diagnostics bundles currently on disk.")
		sample(b, "mapd_diag_bytes", nil, float64(diagBytes))
	}

	names := m.libNames()
	sort.Strings(names)
	family(b, "mapd_requests_by_library_total", "counter", "Served mappings per library.")
	type libSnap struct {
		name     string
		requests uint64
		patterns uint64
		latency  histogram
		perReq   histogram
	}
	snaps := make([]libSnap, 0, len(names))
	for _, name := range names {
		lm := m.lib(name)
		lm.mu.Lock()
		snaps = append(snaps, libSnap{
			name:     name,
			requests: lm.requests,
			patterns: lm.patternsTried,
			latency:  lm.latency.clone(),
			perReq:   lm.patterns.clone(),
		})
		lm.mu.Unlock()
	}
	for _, ls := range snaps {
		sample(b, "mapd_requests_by_library_total", labels{{"library", ls.name}}, float64(ls.requests))
	}
	family(b, "mapd_patterns_tried_by_library_total", "counter", "Pattern plans attempted per library.")
	for _, ls := range snaps {
		sample(b, "mapd_patterns_tried_by_library_total", labels{{"library", ls.name}}, float64(ls.patterns))
	}
	family(b, "mapd_request_duration_seconds", "histogram", "Served mapping latency per library.")
	for _, ls := range snaps {
		writeHistogram(b, "mapd_request_duration_seconds", ls.name, &ls.latency)
	}
	family(b, "mapd_patterns_tried_per_request", "histogram", "Pattern plans attempted per served mapping, per library.")
	for _, ls := range snaps {
		writeHistogram(b, "mapd_patterns_tried_per_request", ls.name, &ls.perReq)
	}
}

// labels is an ordered label set (exposition order is authoring order).
type labels [][2]string

func family(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

func sample(b *strings.Builder, name string, ls labels, v float64) {
	b.WriteString(name)
	writeLabels(b, ls)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func writeLabels(b *strings.Builder, ls labels) {
	if len(ls) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits the cumulative bucket series, sum and count of
// one library's histogram.
func writeHistogram(b *strings.Builder, name, lib string, h *histogram) {
	writeHistogramLabeled(b, name, labels{{"library", lib}}, h)
}

// writeHistogramLabeled is writeHistogram generalized over the base
// label set (empty for the unlabeled job-item histogram).
func writeHistogramLabeled(b *strings.Builder, name string, base labels, h *histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i]
		sample(b, name+"_bucket", append(base[:len(base):len(base)], [2]string{"le", formatValue(bound)}), float64(cum))
	}
	cum += h.counts[len(h.bounds)]
	sample(b, name+"_bucket", append(base[:len(base):len(base)], [2]string{"le", "+Inf"}), float64(cum))
	sample(b, name+"_sum", base, h.sum)
	sample(b, name+"_count", base, float64(h.n))
}
