package service

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dagcover"
	"dagcover/internal/jobs"
	"dagcover/internal/obs"
)

// latencyBounds are the fixed upper bounds (seconds) of the request
// latency histogram. The spread covers sub-millisecond cache-hit
// mappings through multi-second supergate compilations.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// patternsBounds are the fixed upper bounds of the per-request
// patterns-tried histogram (pattern plans attempted per mapping).
var patternsBounds = []float64{
	1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7,
}

// histogram is a fixed-bucket histogram: counts[i] holds observations
// v <= bounds[i] and > bounds[i-1]; counts[len(bounds)] is the
// overflow bucket. Not self-locking — the owner synchronizes.
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// clone copies the histogram for lock-free post-processing.
func (h *histogram) clone() histogram {
	return histogram{
		bounds: h.bounds,
		counts: append([]uint64(nil), h.counts...),
		sum:    h.sum,
		n:      h.n,
	}
}

// quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the bucket holding the target rank — the
// standard fixed-bucket estimate (what a PromQL histogram_quantile
// computes), replacing the earlier sort-based nearest-rank over a
// sample ring. Observations beyond the last bound clamp to it.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// The phases of a request's wall time, indexing reqPhases.d and
// phaseTimes. phaseNames fixes the order every surface renders them
// in: /stats, /metrics, wide events, job items and the access log.
const (
	phaseQueue   = iota // waiting for an admission slot or a coalesced run
	phaseParse          // BLIF parse, subject-graph build and digest
	phaseCompile        // library resolution and compilation
	phaseMap            // the engine run
	phaseVerify         // the equivalence check of a verify request
	phaseRespond        // netlist and response encoding, result publication
	numPhases
)

var phaseNames = [numPhases]string{"queue", "parse", "compile", "map", "verify", "respond"}

// phaseTimes accumulates request-phase wall time (nanoseconds) across
// all requests; exported as mapd_phase_seconds_total{phase=...} and
// the /stats phase_ms block.
type phaseTimes [numPhases]atomic.Int64

// add folds one request's phase breakdown into the running totals.
func (p *phaseTimes) add(ph *reqPhases) {
	for i := range p {
		p[i].Add(int64(ph.d[i]))
	}
}

// phaseMillis renders one request's phase breakdown — the service
// phases plus, when the engine ran, its internal/obs label/cover/emit
// wall times — for wide events and job items.
func phaseMillis(ph *reqPhases) map[string]float64 {
	m := make(map[string]float64, numPhases+4)
	for i, name := range phaseNames {
		m[name] = millis(ph.d[i])
	}
	if ph.core != (dagcover.PhaseBreakdown{}) {
		m["label"] = ph.core.LabelMillis
		m["label_wall"] = ph.core.LabelWallMillis
		m["cover"] = ph.core.CoverMillis
		m["emit"] = ph.core.EmitMillis
	}
	return m
}

// resultLabels are the outcome classes of a finished request, in
// exposition order (see resultLabel).
var resultLabels = []string{"ok", "bad_request", "too_large", "overloaded", "timeout", "canceled", "internal"}

// metrics aggregates the server's observable state. Counters are
// atomics bumped on the request path; per-library histograms take a
// short mutex only when recording or snapshotting.
type metrics struct {
	start time.Time

	total atomic.Uint64 // every /map request received
	// results counts finished requests by resultLabel; the map is
	// filled at construction and only read after.
	results map[string]*atomic.Uint64

	patternsTried atomic.Uint64
	// memoHits/memoMisses sum the structural match-memo consultations
	// attributed to served requests (request-scoped, so they line up
	// with MapResponse fields; the tables' own cumulative counters are
	// summed separately from the cache in snapshot/writeMetrics).
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64

	phases phaseTimes

	// Whole-result cache counters: hits per tier, misses (engine runs
	// that published a result), coalesced waits, and disk publications.
	rcMemHits     atomic.Uint64
	rcDiskHits    atomic.Uint64
	rcMisses      atomic.Uint64
	rcCoalesced   atomic.Uint64
	rcStores      atomic.Uint64
	rcStoreErrors atomic.Uint64

	jobs jobMetrics

	mu     sync.Mutex
	perLib map[string]*libMetrics
}

// jobMetrics tracks the async job subsystem separately from the /map
// request counters: a batch of 64 netlists is one job and 64 items,
// never 64 synthetic /map requests.
type jobMetrics struct {
	submitted atomic.Uint64 // jobs accepted (202)
	done      atomic.Uint64 // jobs finished with >= 1 mapped item
	failed    atomic.Uint64 // jobs where every item failed (or the library did)
	cancelled atomic.Uint64 // jobs ended by DELETE

	itemsOK        atomic.Uint64 // items mapped (200)
	itemsFailed    atomic.Uint64 // items rejected (400/500)
	itemsTimeout   atomic.Uint64 // items past their deadline (504)
	itemsCancelled atomic.Uint64 // items settled 499 by cancellation

	mu          sync.Mutex
	itemLatency histogram // seconds per mapped item
}

// recordJobItemWork folds one mapped batch item's pattern-matching and
// memo work into the global work counters (shared with /map, since the
// underlying engine work is the same) without touching the request
// classification counters.
func (m *metrics) recordJobItemWork(patternsTried, memoHits, memoMisses int) {
	m.patternsTried.Add(uint64(patternsTried))
	m.memoHits.Add(uint64(memoHits))
	m.memoMisses.Add(uint64(memoMisses))
}

// libMetrics is the per-library slice of the stats: request count,
// pattern-match work, and fixed-bucket latency / patterns-tried
// histograms.
type libMetrics struct {
	mu            sync.Mutex
	requests      uint64
	patternsTried uint64
	latency       histogram // seconds
	patterns      histogram // patterns tried per request
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), perLib: make(map[string]*libMetrics),
		results: make(map[string]*atomic.Uint64, len(resultLabels))}
	for _, label := range resultLabels {
		m.results[label] = new(atomic.Uint64)
	}
	m.jobs.itemLatency = newHistogram(latencyBounds)
	return m
}

// lib returns (creating if needed) the per-library metrics bucket.
func (m *metrics) lib(name string) *libMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	lm := m.perLib[name]
	if lm == nil {
		lm = &libMetrics{
			latency:  newHistogram(latencyBounds),
			patterns: newHistogram(patternsBounds),
		}
		m.perLib[name] = lm
	}
	return lm
}

// libNames returns the known library labels (unsorted).
func (m *metrics) libNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.perLib))
	for name := range m.perLib {
		names = append(names, name)
	}
	return names
}

// recordServed logs one successful mapping against its library.
func (m *metrics) recordServed(lib string, latency time.Duration, patternsTried, memoHits, memoMisses int) {
	m.results["ok"].Add(1)
	m.patternsTried.Add(uint64(patternsTried))
	m.memoHits.Add(uint64(memoHits))
	m.memoMisses.Add(uint64(memoMisses))
	lm := m.lib(lib)
	lm.mu.Lock()
	lm.requests++
	lm.patternsTried += uint64(patternsTried)
	lm.latency.observe(latency.Seconds())
	lm.patterns.observe(float64(patternsTried))
	lm.mu.Unlock()
}

// LibrarySnapshot is the /stats view of one library. The quantiles are
// histogram estimates (linear interpolation within a fixed bucket).
type LibrarySnapshot struct {
	Requests      uint64  `json:"requests"`
	PatternsTried uint64  `json:"patterns_tried"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`
}

// StatsSnapshot is the /stats response body.
type StatsSnapshot struct {
	UptimeMillis int64 `json:"uptime_ms"`
	Requests     struct {
		Total      uint64 `json:"total"`
		OK         uint64 `json:"ok"`
		BadRequest uint64 `json:"bad_request"`
		TooLarge   uint64 `json:"too_large"`
		Overloaded uint64 `json:"overloaded"`
		Timeout    uint64 `json:"timeout"`
		Canceled   uint64 `json:"canceled"`
		Internal   uint64 `json:"internal"`
	} `json:"requests"`
	// Jobs is the async job subsystem: lifecycle counters, resident
	// jobs per state, and per-item latency quantiles for mapped items.
	Jobs struct {
		Submitted      uint64         `json:"submitted"`
		Done           uint64         `json:"done"`
		Failed         uint64         `json:"failed"`
		Cancelled      uint64         `json:"cancelled"`
		Evicted        uint64         `json:"evicted"`
		Resident       int            `json:"resident"`
		Capacity       int            `json:"capacity"`
		ByState        map[string]int `json:"by_state"`
		ItemsOK        uint64         `json:"items_ok"`
		ItemsFailed    uint64         `json:"items_failed"`
		ItemsTimeout   uint64         `json:"items_timeout"`
		ItemsCancelled uint64         `json:"items_cancelled"`
		ItemP50Millis  float64        `json:"item_p50_ms"`
		ItemP99Millis  float64        `json:"item_p99_ms"`
	} `json:"jobs"`
	Cache struct {
		Libraries int    `json:"libraries"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Compiles  uint64 `json:"compiles"`
		// Entries lists each cached compiled library with its gate and
		// pattern counts, so supergate-inflated entries are visible.
		Entries []EntryInfo `json:"entries"`
	} `json:"cache"`
	Queue struct {
		Running       int `json:"running"`
		Queued        int `json:"queued"`
		Concurrency   int `json:"concurrency"`
		QueueCapacity int `json:"queue_capacity"`
	} `json:"queue"`
	PatternsTried uint64 `json:"patterns_tried"`
	// Memo aggregates the structural match-memo state: Hits/Misses are
	// the consultations attributed to served requests, TableEntries and
	// Evictions sum the cached compiled libraries' shared tables (the
	// cache never drops entries, so the sums are monotone).
	Memo struct {
		Hits         uint64 `json:"hits"`
		Misses       uint64 `json:"misses"`
		TableEntries int    `json:"table_entries"`
		Evictions    uint64 `json:"evictions"`
	} `json:"memo"`
	// Store is the persistent artifact store's view: hit/miss/write
	// counters, corruption quarantines, disk usage against the GC
	// budget, and the generation seconds the store has saved. Absent
	// when the server runs without a store.
	Store *StoreSnapshot `json:"store,omitempty"`
	// ResultCache is the whole-result cache: tiered hit/miss/coalesce
	// counters plus the in-memory SLRU's occupancy. Absent when result
	// caching is disabled.
	ResultCache *ResultCacheSnapshot `json:"result_cache,omitempty"`
	// PhaseMillis breaks served wall time down by request phase,
	// accumulated across all requests.
	PhaseMillis map[string]float64         `json:"phase_ms"`
	Libraries   map[string]LibrarySnapshot `json:"libraries"`
	// Build identifies the running binary (also /healthz and the
	// mapd_build_info gauge).
	Build BuildInfo `json:"build"`
	// Runtime is the latest Go-runtime telemetry sample (heap, GC
	// pauses, goroutines, scheduler latency), at most one sampling
	// interval old.
	Runtime obs.RuntimeSample `json:"runtime"`
	// SLO is the availability goal and the current multi-window burn
	// rates over latency violations and sheds.
	SLO struct {
		Goal            float64        `json:"goal"`
		LatencyTargetMS float64        `json:"latency_target_ms,omitempty"`
		Windows         []obs.BurnRate `json:"windows"`
	} `json:"slo"`
	// Events describes the wide-event ring behind /debug/events.
	Events struct {
		Recorded uint64 `json:"recorded"`
		Capacity int    `json:"capacity"`
	} `json:"events"`
	// Diag is the slow-request capture state. Absent when capture is
	// disabled (no -diag-dir).
	Diag *DiagSnapshot `json:"diag,omitempty"`
}

// DiagSnapshot is the /stats view of the diagnostics recorder.
type DiagSnapshot struct {
	Dir       string `json:"dir"`
	Captures  uint64 `json:"captures"`
	Dropped   uint64 `json:"dropped"`
	Evictions uint64 `json:"evictions"`
	Bundles   int    `json:"bundles"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// ResultCacheSnapshot is the /stats view of the whole-result cache.
type ResultCacheSnapshot struct {
	MemHits     uint64 `json:"mem_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"`
	Coalesced   uint64 `json:"coalesced"`
	Stores      uint64 `json:"stores"`
	StoreErrors uint64 `json:"store_errors"`
	// In-memory SLRU occupancy; the protected segment holds entries
	// that have repeated at least once.
	Entries          int   `json:"entries"`
	Bytes            int64 `json:"bytes"`
	MaxBytes         int64 `json:"max_bytes"`
	ProtectedEntries int   `json:"protected_entries"`
	ProtectedBytes   int64 `json:"protected_bytes"`
}

// StoreSnapshot is the /stats view of the artifact store.
type StoreSnapshot struct {
	Dir          string  `json:"dir"`
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Writes       uint64  `json:"writes"`
	WriteErrors  uint64  `json:"write_errors"`
	Evictions    uint64  `json:"evictions"`
	Quarantined  uint64  `json:"quarantined"`
	Objects      int     `json:"objects"`
	Bytes        int64   `json:"bytes"`
	MaxBytes     int64   `json:"max_bytes"`
	GenSeconds   float64 `json:"generation_seconds"`
	SavedSeconds float64 `json:"generation_seconds_saved"`
}

// snapshot assembles the full /stats view. Each per-library bucket is
// locked exactly once: counters and histograms are snapshotted in the
// same critical section (the earlier version re-locked for quantiles,
// so counters and percentiles could straddle a concurrent record).
func (m *metrics) snapshot(c *Cache, a *admitter, js *jobs.Store, st *dagcover.ArtifactStore) StatsSnapshot {
	var s StatsSnapshot
	s.UptimeMillis = time.Since(m.start).Milliseconds()
	s.Requests.Total = m.total.Load()
	s.Requests.OK = m.results["ok"].Load()
	s.Requests.BadRequest = m.results["bad_request"].Load()
	s.Requests.TooLarge = m.results["too_large"].Load()
	s.Requests.Overloaded = m.results["overloaded"].Load()
	s.Requests.Timeout = m.results["timeout"].Load()
	s.Requests.Canceled = m.results["canceled"].Load()
	s.Requests.Internal = m.results["internal"].Load()
	s.Jobs.Submitted = m.jobs.submitted.Load()
	s.Jobs.Done = m.jobs.done.Load()
	s.Jobs.Failed = m.jobs.failed.Load()
	s.Jobs.Cancelled = m.jobs.cancelled.Load()
	s.Jobs.Evicted = js.Evictions()
	s.Jobs.Resident = js.Len()
	s.Jobs.Capacity, _ = js.Capacity()
	s.Jobs.ByState = make(map[string]int)
	for state, n := range js.CountsByState() {
		s.Jobs.ByState[state.String()] = n
	}
	s.Jobs.ItemsOK = m.jobs.itemsOK.Load()
	s.Jobs.ItemsFailed = m.jobs.itemsFailed.Load()
	s.Jobs.ItemsTimeout = m.jobs.itemsTimeout.Load()
	s.Jobs.ItemsCancelled = m.jobs.itemsCancelled.Load()
	m.jobs.mu.Lock()
	itemLat := m.jobs.itemLatency.clone()
	m.jobs.mu.Unlock()
	if itemLat.n > 0 {
		s.Jobs.ItemP50Millis = roundMillis(itemLat.quantile(0.50) * 1e3)
		s.Jobs.ItemP99Millis = roundMillis(itemLat.quantile(0.99) * 1e3)
	}
	s.Cache.Libraries = c.Len()
	s.Cache.Hits, s.Cache.Misses, s.Cache.Compiles = c.Counters()
	s.Cache.Entries = c.Entries()
	s.Queue.Running, s.Queue.Queued = a.depth()
	s.Queue.Concurrency, s.Queue.QueueCapacity = a.capacities()
	s.PatternsTried = m.patternsTried.Load()
	s.Memo.Hits = m.memoHits.Load()
	s.Memo.Misses = m.memoMisses.Load()
	ms := c.MemoStats()
	s.Memo.TableEntries = ms.Entries
	s.Memo.Evictions = ms.Evictions
	if st != nil {
		ss := st.Stats()
		s.Store = &StoreSnapshot{
			Dir:          ss.Dir,
			Hits:         ss.Hits,
			Misses:       ss.Misses,
			Writes:       ss.Writes,
			WriteErrors:  ss.WriteErrors,
			Evictions:    ss.Evictions,
			Quarantined:  ss.Quarantined,
			Objects:      ss.Objects,
			Bytes:        ss.Bytes,
			MaxBytes:     ss.MaxBytes,
			GenSeconds:   ss.GenSeconds,
			SavedSeconds: ss.SavedSeconds,
		}
	}
	s.PhaseMillis = make(map[string]float64, numPhases)
	for i, name := range phaseNames {
		s.PhaseMillis[name] = float64(m.phases[i].Load()) / float64(time.Millisecond)
	}
	s.Libraries = make(map[string]LibrarySnapshot)
	for _, name := range m.libNames() {
		lm := m.lib(name)
		lm.mu.Lock()
		snap := LibrarySnapshot{Requests: lm.requests, PatternsTried: lm.patternsTried}
		lat := lm.latency.clone()
		lm.mu.Unlock()
		snap.P50Millis = roundMillis(lat.quantile(0.50) * 1e3)
		snap.P99Millis = roundMillis(lat.quantile(0.99) * 1e3)
		s.Libraries[name] = snap
	}
	return s
}

// roundMillis trims interpolation noise to microsecond precision.
func roundMillis(ms float64) float64 { return math.Round(ms*1e3) / 1e3 }
