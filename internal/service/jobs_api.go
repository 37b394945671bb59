package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"dagcover/internal/jobs"
)

// The async job API. POST /jobs accepts a batch of netlists to map
// against one shared library and returns a job id immediately; the
// batch runs detached on the service's worker pool, holding a single
// admission slot for the whole run and compiling (or cache-hitting)
// the library exactly once. GET /jobs/{id} polls structured progress,
// GET /jobs/{id}/result streams one NDJSON record per item as it
// lands, DELETE /jobs/{id} cancels via the same context plumbing the
// synchronous path uses — the in-flight item stops within a wave and
// settles as 499.

// JobRequest is the POST /jobs body: the batch items plus shared
// mapping parameters with the same semantics as MapRequest. A bare
// "blif" is accepted as a single-item shorthand.
type JobRequest struct {
	// Items are the netlists to map, in order.
	Items []JobItemRequest `json:"items,omitempty"`
	// BLIF is the single-item shorthand (exclusive with Items).
	BLIF string `json:"blif,omitempty"`
	// Shared mapping parameters, applied to every item.
	Library      string           `json:"library,omitempty"`
	Genlib       string           `json:"genlib,omitempty"`
	Mode         string           `json:"mode,omitempty"`
	Class        string           `json:"class,omitempty"`
	Delay        string           `json:"delay,omitempty"`
	K            int              `json:"k,omitempty"`
	AreaRecovery bool             `json:"area_recovery,omitempty"`
	RequiredTime float64          `json:"required_time,omitempty"`
	Verify       bool             `json:"verify,omitempty"`
	Memo         *bool            `json:"memo,omitempty"`
	Supergates   *SupergateConfig `json:"supergates,omitempty"`
	// TimeoutMillis bounds each item (not the whole batch), clamped to
	// the server's maximum; a timed-out item settles as 504 and the
	// batch moves on.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// JobItemRequest is one netlist in a batch.
type JobItemRequest struct {
	// Name labels the item in status and result records (optional).
	Name string `json:"name,omitempty"`
	// BLIF is the circuit to map (required).
	BLIF string `json:"blif"`
}

// itemRequest expands the shared parameters into the MapRequest the
// synchronous path would have received for this item, which is what
// keeps batch results byte-identical to /map.
func (jr *JobRequest) itemRequest(blif string) MapRequest {
	return MapRequest{
		BLIF:          blif,
		Library:       jr.Library,
		Genlib:        jr.Genlib,
		Mode:          jr.Mode,
		Class:         jr.Class,
		Delay:         jr.Delay,
		K:             jr.K,
		AreaRecovery:  jr.AreaRecovery,
		RequiredTime:  jr.RequiredTime,
		TimeoutMillis: jr.TimeoutMillis,
		Verify:        jr.Verify,
		Memo:          jr.Memo,
		Supergates:    jr.Supergates,
	}
}

// JobAccepted is the 202 response to POST /jobs.
type JobAccepted struct {
	JobID     string `json:"job_id"`
	Items     int    `json:"items"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

// JobItemStatus is one item's slice of the GET /jobs/{id} response.
type JobItemStatus struct {
	Index int    `json:"index"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Status is the HTTP-style classification of a settled item (200,
	// 400, 499, 504, 500); omitted while pending/running.
	Status        int                `json:"status,omitempty"`
	Error         string             `json:"error,omitempty"`
	ElapsedMillis float64            `json:"elapsed_ms,omitempty"`
	PhaseMillis   map[string]float64 `json:"phase_ms,omitempty"`
}

// JobStatusResponse is the GET /jobs/{id} body: queued → running(i/N)
// → done/failed/cancelled, with per-item phase wall times.
type JobStatusResponse struct {
	JobID     string          `json:"job_id"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	Items     int             `json:"items"`
	Completed int             `json:"completed"`
	Failed    int             `json:"failed"`
	Cancelled int             `json:"cancelled"`
	AgeMillis float64         `json:"age_ms"`
	RunMillis float64         `json:"run_ms,omitempty"`
	ItemState []JobItemStatus `json:"item_status"`
	ResultURL string          `json:"result_url"`
}

// JobItemRecord is one line of the GET /jobs/{id}/result NDJSON
// stream: the item's classification plus, for mapped items, the same
// MapResponse the synchronous path returns.
type JobItemRecord struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	// TraceID is the parent job's id (job ids are trace ids), so every
	// NDJSON record joins the job's access-log lines and wide events.
	TraceID string `json:"trace_id,omitempty"`
	// ResponseBytes is the serialized size of Response within this
	// record (pre-compression), so clients accounting transfer volume
	// per item — loadgen's gzip accounting, capacity models — don't
	// have to re-marshal each response to measure it. 0 when the item
	// carried no response.
	ResponseBytes int          `json:"response_bytes,omitempty"`
	Response      *MapResponse `json:"response,omitempty"`
}

// handleJobs serves POST /jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.failure(w, http.StatusMethodNotAllowed, "POST a JSON batch job to /jobs")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			s.failure(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit (after decompression, if gzip)", s.cfg.MaxRequestBytes)
			return
		}
		s.failure(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	items := req.Items
	if len(items) == 0 {
		if strings.TrimSpace(req.BLIF) == "" {
			s.failure(w, http.StatusBadRequest, `bad request: provide "items" or a single "blif"`)
			return
		}
		items = []JobItemRequest{{BLIF: req.BLIF}}
		req.BLIF = ""
	} else if strings.TrimSpace(req.BLIF) != "" {
		s.failure(w, http.StatusBadRequest, `bad request: "items" and top-level "blif" are exclusive`)
		return
	}
	if len(items) > s.cfg.MaxBatchItems {
		s.failure(w, http.StatusBadRequest, "bad request: %d items exceeds the batch limit of %d", len(items), s.cfg.MaxBatchItems)
		return
	}
	names := make([]string, len(items))
	for i := range items {
		if strings.TrimSpace(items[i].BLIF) == "" {
			s.failure(w, http.StatusBadRequest, `bad request: item %d has no "blif"`, i)
			return
		}
		names[i] = items[i].Name
	}

	ctx, cancel := context.WithCancel(context.Background())
	var job *jobs.Job
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		job, err = s.jobs.Add(newTraceID(), names, cancel)
		if !errors.Is(err, jobs.ErrDuplicateID) {
			break
		}
	}
	if err != nil {
		cancel()
		if errors.Is(err, jobs.ErrStoreFull) {
			s.recordShedBurn()
			s.failure(w, http.StatusTooManyRequests,
				"job store full: %d jobs resident and none finished; retry later", s.cfg.MaxJobs)
			return
		}
		s.failure(w, http.StatusInternalServerError, "job admission: %v", err)
		return
	}
	s.metrics.jobs.submitted.Add(1)
	go func() {
		// Release the cancel context once the run settles (DELETE uses
		// the same func via the store; cancelling twice is harmless).
		defer cancel()
		s.runJob(ctx, job, &req, items)
	}()
	writeJSON(w, http.StatusAccepted, JobAccepted{
		JobID:     job.ID,
		Items:     len(items),
		StatusURL: "/jobs/" + job.ID,
		ResultURL: "/jobs/" + job.ID + "/result",
	})
}

// handleJobByID routes GET /jobs/{id}, GET /jobs/{id}/result and
// DELETE /jobs/{id}.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		s.failure(w, http.StatusNotFound, "no job id in path")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		job, ok := s.jobs.Get(id)
		if !ok {
			s.failure(w, http.StatusNotFound, "no job %q (expired or never existed)", id)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(job))
	case sub == "" && r.Method == http.MethodDelete:
		job, ok := s.jobs.Get(id)
		if !ok {
			s.failure(w, http.StatusNotFound, "no job %q (expired or never existed)", id)
			return
		}
		fired := job.RequestCancel()
		writeJSON(w, http.StatusOK, map[string]any{
			"job_id":    id,
			"cancelled": fired,
			"state":     job.State().String(),
		})
	case sub == "result" && r.Method == http.MethodGet:
		job, ok := s.jobs.Get(id)
		if !ok {
			s.failure(w, http.StatusNotFound, "no job %q (expired or never existed)", id)
			return
		}
		s.streamJobResult(w, r, job)
	default:
		s.failure(w, http.StatusMethodNotAllowed, "use GET /jobs/{id}, GET /jobs/{id}/result, or DELETE /jobs/{id}")
	}
}

// jobStatus shapes a store snapshot into the poll response.
func jobStatus(job *jobs.Job) JobStatusResponse {
	snap := job.Snapshot()
	resp := JobStatusResponse{
		JobID:     snap.ID,
		State:     snap.State.String(),
		Error:     snap.Err,
		Items:     len(snap.Items),
		Completed: snap.Done,
		Failed:    snap.Failed,
		Cancelled: snap.Cancelled,
		AgeMillis: millis(time.Since(snap.Created)),
		ResultURL: "/jobs/" + snap.ID + "/result",
		ItemState: make([]JobItemStatus, len(snap.Items)),
	}
	if !snap.Started.IsZero() {
		end := snap.Finished
		if end.IsZero() {
			end = time.Now()
		}
		resp.RunMillis = millis(end.Sub(snap.Started))
	}
	for i, it := range snap.Items {
		resp.ItemState[i] = JobItemStatus{
			Index:         i,
			Name:          it.Name,
			State:         it.State.String(),
			Status:        it.Status,
			Error:         it.Err,
			ElapsedMillis: it.ElapsedMillis,
			PhaseMillis:   it.PhaseMillis,
		}
	}
	return resp
}

// streamJobResult serves GET /jobs/{id}/result: chunked NDJSON, one
// record per item, written (and flushed) the moment each item settles.
// Items settle in submission order, so a client reading the stream
// while the job runs sees results incrementally; records for items
// cancelled by DELETE carry status 499.
func (s *Server) streamJobResult(w http.ResponseWriter, r *http.Request, job *jobs.Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-ID", job.ID)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	n := job.Len()
	for i := 0; i < n; i++ {
		it, err := job.WaitItem(r.Context(), i)
		if err != nil {
			return // client went away mid-stream
		}
		rec := it.Result
		if rec == nil {
			// Items settled in bulk (job-level failure, cancellation)
			// have no prebuilt record; synthesize the classification.
			rec, _ = json.Marshal(JobItemRecord{Index: i, Name: it.Name, Status: it.Status, Error: it.Err, TraceID: job.ID})
		}
		if _, err := w.Write(append(rec, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// runJob executes one accepted batch: wait for a worker-pool slot
// (blocking — the job store, not the sync queue, is the backpressure
// for async work), normalize the shared parameters and resolve the
// library once, then take the items through the pipeline in order,
// each under its own deadline, settling every item as it finishes so
// pollers and streamers see progress live.
func (s *Server) runJob(ctx context.Context, job *jobs.Job, req *JobRequest, items []JobItemRequest) {
	queueStart := time.Now()
	if err := s.adm.acquireBlocking(ctx); err != nil {
		// Cancelled while queued: settle everything as 499.
		job.CancelRemaining(time.Now())
		s.finishJob(job)
		return
	}
	defer s.adm.release()
	var bph reqPhases
	bph.d[phaseQueue] = time.Since(queueStart)
	if !job.Start(time.Now()) {
		s.metrics.phases.add(&bph)
		s.finishJob(job)
		return
	}

	// One admission slot, one library resolution for the whole batch:
	// repeated genlib uploads or supergate expansions amortize across
	// every item (and across batches, via the content-addressed cache).
	base := req.itemRequest("")
	batch, err := s.normalize(&base, &bph)
	if err == nil && batch.mode != "lut" {
		t0 := time.Now()
		batch.lib, err = s.resolveLibrary(batch)
		bph.d[phaseCompile] = time.Since(t0)
	}
	s.metrics.phases.add(&bph)
	if err != nil {
		job.FailAll(http.StatusBadRequest, err.Error(), time.Now())
		s.finishJob(job)
		return
	}

	for i := range items {
		if ctx.Err() != nil {
			break
		}
		job.BeginItem(i)
		job.FinishItem(i, s.runJobItem(ctx, job.ID, batch, &items[i], i))
	}
	if ctx.Err() != nil {
		job.CancelRemaining(time.Now())
	} else {
		job.Finish(time.Now())
	}
	s.finishJob(job)
}

// runJobItem takes one batch item through the pipeline under the
// batch's slot and library and classifies the outcome the way /map
// does (200/400/499/504/500). jobID — a trace id — attributes the
// item's NDJSON record, access-log line, and wide event to its parent
// job.
func (s *Server) runJobItem(ctx context.Context, jobID string, batch *mapCall, item *JobItemRequest, idx int) jobs.Item {
	req := *batch.req
	req.BLIF = item.BLIF
	c := *batch
	c.req, c.ph = &req, s.newPhases()
	c.ph.mode = c.mode
	ictx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()

	start := time.Now()
	o := s.process(ictx, &c, true)
	fresh := o.resp != nil
	if o.status == http.StatusOK && !fresh {
		// Items embed the decoded response in their NDJSON record, so
		// the byte-splice shortcut does not apply here.
		t0 := time.Now()
		resp, err := cachedResponse(o.view, o.tier)
		c.ph.d[phaseRespond] += time.Since(t0)
		if err != nil {
			o = failedWith(http.StatusInternalServerError, "%v", err)
		}
		o.resp = resp
	}
	total := time.Since(start)
	elapsed := total - c.ph.d[phaseQueue]

	out := jobs.Item{ElapsedMillis: millis(elapsed), PhaseMillis: phaseMillis(c.ph)}
	rec := JobItemRecord{Index: idx, Name: item.Name, TraceID: jobID}
	switch {
	case o.status == http.StatusOK:
		o.resp.ElapsedMillis, o.resp.TraceID = millis(elapsed), jobID
		out.State, out.Status = jobs.ItemDone, http.StatusOK
		rec.Response = o.resp
		if body, err := json.Marshal(o.resp); err == nil {
			rec.ResponseBytes = len(body)
		}
		// Items feed the work counters (patterns, memo) and the job-item
		// families, but not the /map request counters — batch work must
		// not inflate the synchronous serving stats. Cached results carry
		// the recorded run's counters but did no work here.
		if fresh {
			s.metrics.recordJobItemWork(o.resp.PatternsTried, o.resp.MemoHits, o.resp.MemoMisses)
		}
	case ctx.Err() != nil:
		// The job-level context fired: DELETE (or shutdown), not a
		// per-item deadline.
		out.State, out.Status, out.Err = jobs.ItemCancelled, jobs.StatusClientClosedRequest, "job cancelled"
	default:
		out.State, out.Status, out.Err = jobs.ItemFailed, o.status, o.errMsg
	}
	rec.Status, rec.Error = out.Status, out.Err
	c.ph.errMsg = out.Err
	s.finish(jobID, "job_item", idx, item.Name, out.Status, total, c.ph)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if encErr := enc.Encode(rec); encErr == nil {
		out.Result = bytes.TrimRight(buf.Bytes(), "\n")
	}
	return out
}

// finishJob folds a settled job into the metrics: final state, item
// outcome counts, and per-item latency observations.
func (s *Server) finishJob(job *jobs.Job) {
	snap := job.Snapshot()
	jm := &s.metrics.jobs
	switch snap.State {
	case jobs.Done:
		jm.done.Add(1)
	case jobs.Failed:
		jm.failed.Add(1)
	case jobs.Cancelled:
		jm.cancelled.Add(1)
	}
	for _, it := range snap.Items {
		switch it.Status {
		case http.StatusOK:
			jm.itemsOK.Add(1)
		case jobs.StatusClientClosedRequest:
			jm.itemsCancelled.Add(1)
		case http.StatusGatewayTimeout:
			jm.itemsTimeout.Add(1)
		default:
			jm.itemsFailed.Add(1)
		}
		if it.Status == http.StatusOK {
			jm.mu.Lock()
			jm.itemLatency.observe(it.ElapsedMillis / 1e3)
			jm.mu.Unlock()
		}
	}
}
