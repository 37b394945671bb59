// Package service turns the one-shot mapper into a long-running
// mapping service: an HTTP/JSON front end over the dagcover facade
// with the three properties a shared deployment needs.
//
//   - Compiled-library cache. Parsing a genlib and compiling its
//     pattern plans and signature index dominates short requests;
//     the cache (see Cache) does that work once per distinct library
//     content and shares the immutable result, while per-request
//     matcher scratch comes from dagcover.CompiledLibrary's pool.
//   - Admission control. A bounded worker pool (see admitter) caps
//     concurrent mappings and the wait queue; excess load is rejected
//     with 429 instead of accumulating goroutines and memory.
//   - Cancellation. Every request runs under a context carrying the
//     client connection and a per-request deadline, which the core
//     labeling/construction loops poll — a disconnect or timeout
//     stops the mapping within a wave, not after it.
//
// Endpoints: POST /map, GET /healthz, GET /stats.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"dagcover"
	"dagcover/internal/jobs"
	"dagcover/internal/obs"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Concurrency caps simultaneous mapping runs (default NumCPU).
	Concurrency int
	// QueueDepth caps requests waiting for a run slot (default
	// 4x Concurrency; negative means no queue — shed immediately).
	// Beyond it requests get 429.
	QueueDepth int
	// DefaultTimeout bounds a request that doesn't ask for a timeout
	// (default 60s); MaxTimeout caps what a request may ask for
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRequestBytes bounds the request body (default 32 MiB).
	MaxRequestBytes int64
	// Parallelism is the per-request labeling worker count passed to
	// DAG covering (default 1: concurrency across requests already
	// saturates the pool; raise it for latency-sensitive, low-traffic
	// deployments).
	Parallelism int
	// CacheEntries bounds the compiled-library cache (default 128).
	CacheEntries int
	// MaxJobs bounds the async job store (default 512). At capacity the
	// oldest finished job is evicted to admit a new one; when every
	// resident job is still active, submissions are shed with 429.
	MaxJobs int
	// JobTTL is how long finished jobs (status and results) stay
	// pollable before the store sweeps them (default 15m).
	JobTTL time.Duration
	// MaxBatchItems caps the netlists in one batch job (default 64).
	MaxBatchItems int
	// Store, when non-nil, is the persistent content-addressed artifact
	// store consulted by supergate requests: expanded supergate
	// libraries are loaded from it instead of regenerated, and fresh
	// generations are published to it. Several servers (and the techmap
	// CLI) may share one store directory; mapping output is
	// byte-identical with or without it.
	Store *dagcover.ArtifactStore
	// Logger, when non-nil, receives one structured access-log record
	// per /map request (trace id, result, per-phase millis). nil keeps
	// the server quiet.
	Logger *slog.Logger
	// SlowRequest, when positive, logs requests slower than this at
	// Warn level with their full phase breakdown (requires Logger) and
	// triggers a diagnostics capture when Diag is set.
	SlowRequest time.Duration
	// Diag, when non-nil, receives a diagnostics bundle (wide event,
	// per-request trace spans, goroutine dump, runtime sample) for every
	// request that trips SlowRequest or SLOLatency. nil disables
	// capture (and per-request span recording).
	Diag *obs.DiagRecorder
	// SLOLatency is the latency SLO target: served requests over it
	// count against the error budget tracked by the burn-rate windows
	// (and trigger capture when Diag is set). <= 0 means sheds and
	// timeouts alone burn budget.
	SLOLatency time.Duration
	// SLOGoal is the availability goal behind the burn rates (fraction
	// of good requests; default 0.99).
	SLOGoal float64
	// EventBuffer bounds the in-memory wide-event ring served at
	// /debug/events (default 1024).
	EventBuffer int
	// RuntimeSampleEvery is the runtime-telemetry polling interval
	// (default 10s; negative disables the background sampler — the
	// latest sample is then only refreshed by diagnostics captures).
	RuntimeSampleEvery time.Duration
	// ResultCacheBytes bounds the in-memory mapping result cache: whole
	// serialized responses keyed by (subject-graph digest, library key,
	// normalized options), so repeated identical requests skip the
	// engine entirely. 0 selects the 64 MiB default; negative disables
	// result caching altogether (memory tier, the mapres1 disk tier,
	// and request coalescing). The mapper is deterministic, so a cached
	// response's netlist is byte-identical to a recomputed one.
	ResultCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Concurrency
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 32 << 20
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 512
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.SLOGoal <= 0 {
		c.SLOGoal = 0.99
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 1024
	}
	if c.RuntimeSampleEvery == 0 {
		c.RuntimeSampleEvery = 10 * time.Second
	} else if c.RuntimeSampleEvery < 0 {
		c.RuntimeSampleEvery = 0
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	} else if c.ResultCacheBytes < 0 {
		c.ResultCacheBytes = 0
	}
	return c
}

// Server is the mapping service. Create with New, mount Handler into
// an http.Server.
type Server struct {
	cfg     Config
	cache   *Cache
	adm     *admitter
	metrics *metrics
	jobs    *jobs.Store
	store   *dagcover.ArtifactStore
	// sgInfo remembers, per compiled-cache key, how the supergate
	// expansion behind that entry was satisfied (store hit or fresh
	// generation, artifact SHA), so every response against the entry
	// can report the artifact identity — not just the request that
	// compiled it.
	sgInfo  sync.Map // cache key -> dagcover.SupergateStoreInfo
	mux     *http.ServeMux
	handler http.Handler

	// Whole-result cache (nil when disabled): the in-memory SLRU tier
	// plus the single-flight group that coalesces identical misses.
	// The disk tier rides the artifact store (kind mapres1).
	resultCache *resultCache
	flights     *flightGroup

	// Flight recorder: the wide-event ring behind /debug/events, the
	// runtime-telemetry sampler behind mapd_go_*, the SLO burn-rate
	// tracker, and the (optional) slow-request diagnostics recorder.
	events  *obs.EventRing
	runtime *obs.RuntimeSampler
	burn    *obs.BurnTracker
	diag    *obs.DiagRecorder
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		adm:     newAdmitter(cfg.Concurrency, cfg.QueueDepth),
		metrics: newMetrics(),
		jobs:    jobs.NewStore(cfg.MaxJobs, cfg.JobTTL, nil),
		store:   cfg.Store,
		mux:     http.NewServeMux(),
		events:  obs.NewEventRing(cfg.EventBuffer),
		runtime: obs.NewRuntimeSampler(cfg.RuntimeSampleEvery),
		burn:    obs.NewBurnTracker(cfg.SLOGoal, burnWindows...),
		diag:    cfg.Diag,
	}
	if cfg.ResultCacheBytes > 0 {
		s.resultCache = newResultCache(cfg.ResultCacheBytes)
		s.flights = newFlightGroup()
	}
	s.mux.HandleFunc("/map", s.handleMap)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/events", s.handleDebugEvents)
	s.handler = s.transport(s.mux)
	return s
}

// Close stops the server's background work (the runtime sampler).
// In-flight requests are unaffected; safe to call more than once.
func (s *Server) Close() { s.runtime.Stop() }

// Handler returns the service's HTTP handler: the endpoint mux behind
// the wire transport (request body bounds, gzip negotiation).
func (s *Server) Handler() http.Handler { return s.handler }

// Cache exposes the compiled-library cache (tests, warm-up).
func (s *Server) Cache() *Cache { return s.cache }

// Jobs exposes the async job store (tests, operators).
func (s *Server) Jobs() *jobs.Store { return s.jobs }

// Stats returns the current observability snapshot.
func (s *Server) Stats() StatsSnapshot {
	snap := s.metrics.snapshot(s.cache, s.adm, s.jobs, s.store)
	if s.resultCache != nil {
		rc := s.resultCache.stats()
		snap.ResultCache = &ResultCacheSnapshot{
			MemHits:          s.metrics.rcMemHits.Load(),
			DiskHits:         s.metrics.rcDiskHits.Load(),
			Misses:           s.metrics.rcMisses.Load(),
			Coalesced:        s.metrics.rcCoalesced.Load(),
			Stores:           s.metrics.rcStores.Load(),
			StoreErrors:      s.metrics.rcStoreErrors.Load(),
			Entries:          rc.entries,
			Bytes:            rc.bytes,
			MaxBytes:         rc.maxBytes,
			ProtectedEntries: rc.protectedEntries,
			ProtectedBytes:   rc.protectedBytes,
		}
	}
	s.fillFlightStats(&snap)
	return snap
}

// Store exposes the artifact store (tests, operators); nil when the
// server runs without one.
func (s *Server) Store() *dagcover.ArtifactStore { return s.store }

// MapRequest is the POST /map body.
type MapRequest struct {
	// BLIF is the circuit to map (required).
	BLIF string `json:"blif"`
	// Library names a built-in library: lib2 (default), 44-1, 44-3.
	Library string `json:"library,omitempty"`
	// Genlib, when set, is uploaded genlib text and overrides Library.
	// Identical uploads share one cached compilation (content hash).
	Genlib string `json:"genlib,omitempty"`
	// Mode is dag (default), tree, or lut.
	Mode string `json:"mode,omitempty"`
	// Class is standard (default) or extended (dag mode only).
	Class string `json:"class,omitempty"`
	// Delay is intrinsic (default) or unit.
	Delay string `json:"delay,omitempty"`
	// K is the LUT input count for lut mode (default 4).
	K int `json:"k,omitempty"`
	// AreaRecovery/RequiredTime configure area recovery (dag mode).
	AreaRecovery bool    `json:"area_recovery,omitempty"`
	RequiredTime float64 `json:"required_time,omitempty"`
	// TimeoutMillis overrides the server's default per-request
	// timeout, clamped to the server's maximum.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// Verify re-simulates the mapped netlist against the input before
	// responding.
	Verify bool `json:"verify,omitempty"`
	// Memo, when set to false, bypasses the library's structural match
	// memo for this request (the mapped netlist is byte-identical
	// either way; this is the per-request escape hatch and baseline
	// knob). Omitted or true uses the shared table.
	Memo *bool `json:"memo,omitempty"`
	// Supergates, when set, expands the library with composed
	// supergates before compiling (dag/tree modes only). The expanded
	// compilation is cached under the library key plus the normalized
	// bounds, so repeated requests share it.
	Supergates *SupergateConfig `json:"supergates,omitempty"`
}

// SupergateConfig bounds server-side supergate generation. Zero
// fields take defaults; all fields are clamped to server-safe caps
// (generation cost grows steeply with the bounds, and an uploaded
// library must not be able to request an unbounded expansion).
type SupergateConfig struct {
	// MaxInputs caps supergate input count (default 4, max 6).
	MaxInputs int `json:"max_inputs,omitempty"`
	// MaxDepth caps composition depth (default 2, max 3).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxGates caps emitted supergates (default 512, max 1024).
	MaxGates int `json:"max_gates,omitempty"`
}

// Server-side caps on SupergateConfig.
const (
	maxSupergateInputs = 6
	maxSupergateDepth  = 3
	maxSupergateGates  = 1024
)

// normalize applies defaults and clamps; the result is what both the
// generator and the cache key see, so two requests that clamp to the
// same bounds share one compilation.
func (c *SupergateConfig) normalize() SupergateConfig {
	out := SupergateConfig{MaxInputs: 4, MaxDepth: 2, MaxGates: 512}
	if c == nil {
		return out
	}
	if c.MaxInputs > 0 {
		out.MaxInputs = min(max(c.MaxInputs, 2), maxSupergateInputs)
	}
	if c.MaxDepth > 0 {
		out.MaxDepth = min(c.MaxDepth, maxSupergateDepth)
	}
	if c.MaxGates > 0 {
		out.MaxGates = min(c.MaxGates, maxSupergateGates)
	}
	return out
}

// cacheSuffix renders the normalized bounds into the cache key.
func (c SupergateConfig) cacheSuffix() string {
	return fmt.Sprintf("|sg:i%d,d%d,g%d", c.MaxInputs, c.MaxDepth, c.MaxGates)
}

// MapResponse is the POST /map success body.
type MapResponse struct {
	Circuit string `json:"circuit"`
	Library string `json:"library"`
	Mode    string `json:"mode"`
	// Netlist is the mapped circuit as BLIF (.gate form for dag/tree,
	// .names LUTs for lut).
	Netlist           string  `json:"netlist"`
	Delay             float64 `json:"delay,omitempty"`
	Area              float64 `json:"area,omitempty"`
	Cells             int     `json:"cells,omitempty"`
	Depth             int     `json:"depth,omitempty"`
	LUTs              int     `json:"luts,omitempty"`
	DuplicatedNodes   int     `json:"duplicated_nodes,omitempty"`
	SubjectNodes      int     `json:"subject_nodes,omitempty"`
	PatternsTried     int     `json:"patterns_tried,omitempty"`
	MatchesEnumerated int     `json:"matches_enumerated,omitempty"`
	// MemoHits/MemoMisses count structural match-memo consultations
	// during this request; repeated requests for the same library warm
	// its shared table, so hits grow with traffic.
	MemoHits   int `json:"memo_hits,omitempty"`
	MemoMisses int `json:"memo_misses,omitempty"`
	// CacheHit reports whether the library was already compiled.
	CacheHit bool `json:"cache_hit"`
	// SGStoreHit, for supergate requests served by a server with a
	// persistent artifact store, reports whether the expanded library's
	// artifact came from the store (true: enumeration was skipped, by
	// this process or an earlier one) or was generated fresh (false).
	// Absent when the request asked for no supergates or the server has
	// no store.
	SGStoreHit *bool `json:"sg_store_hit,omitempty"`
	// SGArtifactSHA is the SHA-256 of the supergate genlib artifact —
	// equal across every process that expands the same library under
	// the same bounds, which is how a fleet (or a CI restart check)
	// asserts it shares one artifact.
	SGArtifactSHA string `json:"sg_artifact_sha,omitempty"`
	// SubjectSHA is the canonical content digest of the subject graph
	// the request mapped (see dagcover.MapResult.SubjectSHA); with the
	// library key and normalized options it fully determines the
	// response, which is what makes whole-result caching sound. Absent
	// in lut mode.
	SubjectSHA string `json:"subject_sha,omitempty"`
	// ResultCache reports how the whole-result cache served this
	// response: hit-mem (in-process SLRU), hit-disk (artifact store,
	// e.g. after a restart or from a sibling replica), miss (computed
	// and published), or coalesced (waited on an identical concurrent
	// request's run). Absent when result caching is disabled or the
	// mode is not cacheable (lut).
	ResultCache string `json:"result_cache,omitempty"`
	// ResultSHA is the SHA-256 of the canonical serialized result (the
	// response with volatile per-request fields zeroed). Identical
	// requests get identical ResultSHA whether served cold, warm, or
	// coalesced — the cheap way to assert byte-level determinism.
	ResultSHA string `json:"result_sha,omitempty"`
	Verified  bool   `json:"verified,omitempty"`
	// ElapsedMillis is the serving time excluding queueing: the
	// handler's wall time minus admission and coalescing waits, on
	// every path (the per-library latency histograms book the same).
	ElapsedMillis float64 `json:"elapsed_ms"`
	// TraceID echoes the per-request trace id (also the X-Trace-ID
	// response header) for correlation with the server's access log.
	TraceID string `json:"trace_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// lutLibraryLabel keys LUT-mode requests in the per-library stats,
// which otherwise track gate libraries.
func lutLibraryLabel(k int) string { return fmt.Sprintf("lut-k%d", k) }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

func (s *Server) failure(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.results[resultLabel(status)].Add(1)
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildInfo()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_ms":  time.Since(s.metrics.start).Milliseconds(),
		"go_version": bi.GoVersion,
		"version":    bi.Version,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// reqPhases is one request's wall-time breakdown plus the attribution
// fields the access log wants. Phases are accumulated into the global
// counters (mapd_phase_seconds_total) when the request finishes.
type reqPhases struct {
	d [numPhases]time.Duration

	library  string
	mode     string
	cacheHit bool

	// core is the engine's own phase breakdown (label/cover/emit wall
	// times from the internal/obs instrumentation) for wide events and
	// job items.
	core dagcover.PhaseBreakdown

	// Flight-recorder attribution: the failure message and per-request
	// engine counters the wide event carries, and — when diagnostics
	// capture is enabled — the request's span trace.
	errMsg     string
	memoHits   int
	memoMisses int
	sgStoreHit *bool
	trace      *obs.Trace

	// Result-cache attribution: the subject-graph digest (when one was
	// computed) and how the whole-result cache served the request
	// (hit-mem/hit-disk/miss/coalesced; empty with the cache off).
	subjectSHA  string
	resultCache string
}

// newPhases starts one request's phase record. Span recording costs
// little but is only useful when a breach can publish it, so traces
// exist exactly when diagnostics capture does.
func (s *Server) newPhases() *reqPhases {
	ph := &reqPhases{}
	if s.diag != nil {
		ph.trace = obs.New()
	}
	return ph
}

// newTraceID returns a 16-hex-char per-request trace id. It appears
// in the X-Trace-ID response header and every access-log record, so a
// slow-request log line can be joined to the client's response.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finish books one finished /map request (kind "map") or job item
// (kind "job_item"): phase totals, the access log and the flight
// recorder. itemIndex/itemName only apply to job items.
func (s *Server) finish(traceID, kind string, itemIndex int, itemName string, status int, total time.Duration, ph *reqPhases) {
	s.metrics.phases.add(ph)
	s.logRequest(traceID, kind, itemIndex, itemName, status, total, ph)
	s.recordFlight(traceID, kind, itemIndex, itemName, status, total, ph)
}

// logRequest writes the structured access-log record; a job item's
// carries its parent job's trace id, so one grep follows a batch end
// to end. Records slower than Config.SlowRequest are promoted to Warn.
func (s *Server) logRequest(traceID, kind string, itemIndex int, itemName string, status int, total time.Duration, ph *reqPhases) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	msg := "mapping request"
	attrs := []any{"trace_id", traceID}
	if kind == "job_item" {
		msg = "job item"
		attrs = append(attrs, "item_index", itemIndex, "item_name", itemName)
	}
	attrs = append(attrs, "status", status, "library", ph.library, "mode", ph.mode,
		"cache_hit", ph.cacheHit, "total_ms", millis(total))
	for p, name := range phaseNames {
		attrs = append(attrs, name+"_ms", millis(ph.d[p]))
	}
	if s.cfg.SlowRequest > 0 && total >= s.cfg.SlowRequest {
		lg.Warn("slow "+msg, attrs...)
		return
	}
	lg.Info(msg, attrs...)
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	s.metrics.total.Add(1)
	traceID := newTraceID()
	w.Header().Set("X-Trace-ID", traceID)
	start := time.Now()
	ph := s.newPhases()
	status := s.respond(w, s.serveMap(r, ph), traceID, start, ph)
	s.finish(traceID, "map", 0, "", status, time.Since(start), ph)
}

// serveMap decodes one /map request and takes it through the pipeline.
func (s *Server) serveMap(r *http.Request, ph *reqPhases) outcome {
	if r.Method != http.MethodPost {
		return failedWith(http.StatusMethodNotAllowed, "POST a JSON mapping request to /map")
	}
	// The transport middleware has already bounded (and, for
	// Content-Encoding: gzip, transparently decompressed) the body.
	var req MapRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			return failedWith(http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit (after decompression, if gzip)", s.cfg.MaxRequestBytes)
		}
		return failedWith(http.StatusBadRequest, "bad request body: %v", err)
	}
	if strings.TrimSpace(req.BLIF) == "" {
		return failedWith(http.StatusBadRequest, `bad request: "blif" is required`)
	}
	c, err := s.normalize(&req, ph)
	if err != nil {
		return failedWith(http.StatusBadRequest, "%v", err)
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	return s.process(ctx, c, false)
}

// respond writes o as the /map response and returns the status
// written. On every path elapsed_ms — and the latency recordServed
// books — is the handler's wall time minus queueing (admission and
// coalescing waits). A cached payload is byte-spliced, or decoded when
// it does not have the current encoder's shape; either way it books no
// engine work.
func (s *Server) respond(w http.ResponseWriter, o outcome, traceID string, start time.Time, ph *reqPhases) int {
	t0 := time.Now()
	defer func() { ph.d[phaseRespond] += time.Since(t0) }()
	elapsed := t0.Sub(start) - ph.d[phaseQueue]
	resp := o.resp
	if o.status == http.StatusOK && resp == nil {
		if o.view.library != "" {
			if body, ok := spliceCachedResponse(o.view.payload, millis(elapsed), traceID, o.tier, o.view.sha); ok {
				s.metrics.recordServed(o.view.library, elapsed, 0, 0, 0)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write(body)
				return http.StatusOK
			}
		}
		var err error
		if resp, err = cachedResponse(o.view, o.tier); err != nil {
			// Disk payloads are SHA-verified by the store and memory
			// payloads are our own bytes, so this is a code bug.
			o = failedWith(http.StatusInternalServerError, "%v", err)
		}
	}
	if o.status != http.StatusOK {
		ph.errMsg = o.errMsg
		s.failure(w, o.status, "%s", o.errMsg)
		return o.status
	}
	resp.ElapsedMillis, resp.TraceID = millis(elapsed), traceID
	if o.resp != nil {
		s.metrics.recordServed(resp.Library, elapsed, resp.PatternsTried, resp.MemoHits, resp.MemoMisses)
	} else {
		s.metrics.recordServed(resp.Library, elapsed, 0, 0, 0)
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK
}

// statusClientClosedRequest mirrors nginx's non-standard 499: the
// client disconnected before the response; nobody reads the body, but
// the access log keeps an honest status.
const statusClientClosedRequest = 499
