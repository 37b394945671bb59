package service

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"dagcover/internal/obs"
)

// The flight-recorder layer: every finished request or job item
// produces one wide event into a bounded ring (served at
// /debug/events), feeds the SLO burn-rate tracker, and — when it
// tripped the slow threshold or the latency SLO and a diagnostics
// recorder is configured — publishes a self-contained bundle (wide
// event, Chrome trace spans, goroutine dump, runtime sample) so a p99
// breach carries its own evidence instead of just moving a histogram
// bucket.

// burnWindows are the service's rolling SLO windows: a short one for
// paging-speed detection, a long one for trend.
var burnWindows = []obs.WindowSpec{
	{Name: "5m", Dur: 5 * time.Minute},
	{Name: "1h", Dur: time.Hour},
}

// resultLabel maps an HTTP-style status to the result label (one of
// resultLabels) the metrics families and wide events share.
func resultLabel(status int) string {
	switch status {
	case http.StatusOK:
		return "ok"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusGatewayTimeout:
		return "timeout"
	case statusClientClosedRequest:
		return "canceled"
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		return "bad_request"
	default:
		return "internal"
	}
}

// recordFlight folds one finished request (kind "map") or job item
// (kind "job_item") into the flight recorder: wide-event ring, burn
// tracker, and — past the slow/SLO thresholds — a diagnostics
// bundle. itemIndex/itemName only apply to job items.
func (s *Server) recordFlight(traceID, kind string, itemIndex int, itemName string, status int, total time.Duration, ph *reqPhases) {
	now := time.Now()
	slow := s.cfg.SlowRequest > 0 && total >= s.cfg.SlowRequest
	// A latency-SLO violation: a served request over the target, or a
	// timeout (which by definition exceeded any latency target).
	violation := status == http.StatusGatewayTimeout ||
		(s.cfg.SLOLatency > 0 && status == http.StatusOK && total > s.cfg.SLOLatency)
	shed := status == http.StatusTooManyRequests

	ev := obs.WideEvent{
		Time:           now,
		TraceID:        traceID,
		Kind:           kind,
		ItemIndex:      itemIndex,
		ItemName:       itemName,
		Library:        ph.library,
		Mode:           ph.mode,
		Result:         resultLabel(status),
		Status:         status,
		Error:          ph.errMsg,
		DurationMillis: millis(total),
		PhaseMillis:    phaseMillis(ph),
		CacheHit:       ph.cacheHit,
		MemoHits:       ph.memoHits,
		MemoMisses:     ph.memoMisses,
		SGStoreHit:     ph.sgStoreHit,
		SubjectSHA:     ph.subjectSHA,
		ResultCache:    ph.resultCache,
		Slow:           slow || violation,
	}
	s.events.Add(ev)
	s.burn.Record(now, violation || shed)

	if s.diag == nil || !(slow || violation) {
		return
	}
	reason := "slow_request"
	if violation && !slow {
		reason = "slo_violation"
	}
	bundle := &obs.DiagBundle{
		TraceID:       traceID,
		Reason:        reason,
		Event:         ev,
		Runtime:       s.runtime.Refresh(),
		GoroutineDump: obs.GoroutineDump(),
	}
	if ph.trace != nil {
		var buf bytes.Buffer
		if err := ph.trace.WriteChromeTrace(&buf); err == nil {
			bundle.Trace = buf.Bytes()
		}
	}
	// Rate-limited or failed captures are accounted by the recorder's
	// dropped counter; serving never blocks on diagnostics.
	_, _ = s.diag.Capture(bundle)
}

// recordShedBurn counts an admission shed that happened outside the
// /map path (job submissions) against the error budget.
func (s *Server) recordShedBurn() { s.burn.Record(time.Now(), true) }

// fillFlightStats adds the flight recorder's blocks — build identity,
// runtime telemetry, SLO burn rates, event-ring occupancy, capture
// counters — to a metrics snapshot.
func (s *Server) fillFlightStats(snap *StatsSnapshot) {
	snap.Build = buildInfo()
	snap.Runtime = s.runtime.Latest()
	snap.SLO.Goal = s.burn.Goal()
	snap.SLO.LatencyTargetMS = millis(s.cfg.SLOLatency)
	snap.SLO.Windows = s.burn.Rates(time.Now())
	snap.Events.Recorded = s.events.Total()
	snap.Events.Capacity = s.events.Cap()
	if s.diag != nil {
		d := &DiagSnapshot{Dir: s.diag.Dir(), MaxBytes: s.diag.MaxBytes()}
		d.Captures, d.Dropped, d.Evictions = s.diag.Counters()
		d.Bundles, d.Bytes = s.diag.Usage()
		snap.Diag = d
	}
}

// handleDebugEvents serves GET /debug/events: the wide-event ring as
// JSON, newest first. ?result= filters by outcome label, ?kind= by
// map/job_item, ?limit= bounds the response (default 100).
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.failure(w, http.StatusMethodNotAllowed, "GET /debug/events")
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.failure(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	result, kind := q.Get("result"), q.Get("kind")
	var keep func(*obs.WideEvent) bool
	if result != "" || kind != "" {
		keep = func(e *obs.WideEvent) bool {
			return (result == "" || e.Result == result) && (kind == "" || e.Kind == kind)
		}
	}
	events := s.events.Snapshot(limit, keep)
	writeJSON(w, http.StatusOK, struct {
		TotalRecorded uint64          `json:"total_recorded"`
		Capacity      int             `json:"capacity"`
		Returned      int             `json:"returned"`
		Events        []obs.WideEvent `json:"events"`
	}{s.events.Total(), s.events.Cap(), len(events), events})
}
