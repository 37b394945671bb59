package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/network"
	"dagcover/internal/verify"
)

// memoOff is the request-level memo opt-out, used by the timing
// assertions below: with the structural match memo on, a repetitive
// circuit like the array multiplier maps faster than the cancellation
// windows these tests rely on.
var memoOff = func() *bool { f := false; return &f }()

// blifOf renders a generated circuit as BLIF text for a request body.
func blifOf(t *testing.T, nw *network.Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dagcover.WriteBLIF(&buf, nw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// post sends one /map request directly to the handler and decodes the
// response.
func post(t *testing.T, h http.Handler, ctx context.Context, req MapRequest) (int, MapResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body))
	if ctx != nil {
		r = r.WithContext(ctx)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp MapResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, w.Body.String())
		}
	}
	return w.Code, resp, w.Body.String()
}

// checkEquivalent parses the response netlist back and verifies it
// against the original network with the simulation checker.
func checkEquivalent(t *testing.T, orig *network.Network, resp MapResponse, lib *dagcover.Library) {
	t.Helper()
	var mapped *network.Network
	var err error
	if lib != nil {
		mapped, err = dagcover.ParseMappedBLIF(strings.NewReader(resp.Netlist), lib)
	} else {
		mapped, err = dagcover.ParseBLIF(strings.NewReader(resp.Netlist))
	}
	if err != nil {
		t.Fatalf("response netlist does not parse: %v", err)
	}
	if err := verify.Networks(orig, mapped, verify.Options{}); err != nil {
		t.Fatalf("response netlist not equivalent: %v", err)
	}
}

func TestHealthzAndStatsEndpoints(t *testing.T) {
	s := New(Config{Concurrency: 2})
	for _, path := range []string{"/healthz", "/stats"} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s content type = %q", path, ct)
		}
	}
}

func TestMapEndpointCachesLibrary(t *testing.T) {
	s := New(Config{Concurrency: 2})
	nw := bench.Comparator(6)
	req := MapRequest{BLIF: blifOf(t, nw), Library: "44-1", Verify: true}

	code, resp, body := post(t, s.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("first request = %d: %s", code, body)
	}
	if resp.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if !resp.Verified {
		t.Error("verify was requested but not reported")
	}
	if resp.Delay <= 0 || resp.Cells <= 0 {
		t.Errorf("implausible result: delay %v cells %d", resp.Delay, resp.Cells)
	}
	checkEquivalent(t, nw, resp, dagcover.Lib441())

	code, resp, body = post(t, s.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("second request = %d: %s", code, body)
	}
	if !resp.CacheHit {
		t.Error("second request missed the cache")
	}
	if _, _, compiles := s.Cache().Counters(); compiles != 1 {
		t.Errorf("compiles = %d, want 1", compiles)
	}
}

func TestMapEndpointRejectsMalformedInput(t *testing.T) {
	s := New(Config{Concurrency: 2})
	huge := strings.Repeat("z", 50_000)
	cases := []struct {
		name string
		req  MapRequest
	}{
		{"empty blif", MapRequest{}},
		{"garbage blif", MapRequest{BLIF: "this is not blif\n"}},
		{"undefined signal", MapRequest{BLIF: ".model m\n.inputs a\n.outputs o\n.names a ghost o\n11 1\n.end\n"}},
		{"huge token", MapRequest{BLIF: ".model m\n.inputs a\n.outputs o\n.names a " + huge + " o\n11 1\n.end\n"}},
		{"bad library", MapRequest{BLIF: ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n", Library: "nope"}},
		{"bad genlib", MapRequest{BLIF: ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n", Genlib: "GATE broken"}},
		{"bad mode", MapRequest{BLIF: ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n", Mode: "quantum"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := post(t, s.Handler(), nil, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", code, body)
			}
			if len(body) > 1024 {
				t.Fatalf("400 body is %d bytes; errors echoed to clients must stay bounded", len(body))
			}
			var er errorResponse
			if err := json.Unmarshal([]byte(body), &er); err != nil || er.Error == "" {
				t.Fatalf("400 body is not a JSON error: %s", body)
			}
		})
	}
}

// TestCancelledRequestReturnsPromptly is the acceptance check for
// cancellation plumbing: a client that disconnects mid-mapping gets
// its goroutine back well within a second, without the mapping
// completing.
func TestCancelledRequestReturnsPromptly(t *testing.T) {
	s := New(Config{Concurrency: 2})
	// A 64x64 array multiplier takes long enough to map that a 25ms
	// cancel always lands mid-labeling.
	big := blifOf(t, bench.ArrayMultiplier(64))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	code, _, body := post(t, s.Handler(), ctx, MapRequest{BLIF: big, Memo: memoOff})
	elapsed := time.Since(start)
	if code != statusClientClosedRequest {
		t.Fatalf("cancelled request = %d (%s), want %d", code, body, statusClientClosedRequest)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled request took %v to return, want < 1s after cancel", elapsed)
	}
	snap := s.Stats()
	if snap.Requests.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", snap.Requests.Canceled)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	s := New(Config{Concurrency: 2})
	big := blifOf(t, bench.ArrayMultiplier(64))
	code, _, body := post(t, s.Handler(), nil, MapRequest{BLIF: big, TimeoutMillis: 20, Memo: memoOff})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d (%s), want 504", code, body)
	}
	if snap := s.Stats(); snap.Requests.Timeout != 1 {
		t.Errorf("timeout counter = %d, want 1", snap.Requests.Timeout)
	}
}

// TestConcurrentMixedRequests is the service integration test: a
// burst of concurrent requests across all built-in libraries plus an
// uploaded genlib, with one malformed netlist and one request
// cancelled mid-flight. Every successful response must verify
// equivalent against its source circuit, and the cache must have
// compiled each distinct library exactly once. Run under -race this
// also proves the compiled-library sharing and matcher pooling are
// data-race free.
func TestConcurrentMixedRequests(t *testing.T) {
	s := New(Config{Concurrency: 4, QueueDepth: 32, Parallelism: 2})
	h := s.Handler()

	var uploaded bytes.Buffer
	if err := dagcover.WriteLibrary(&uploaded, dagcover.Lib441()); err != nil {
		t.Fatal(err)
	}
	uploadText := uploaded.String()

	type job struct {
		name    string
		orig    *network.Network
		req     MapRequest
		lib     *dagcover.Library // for parsing the response netlist
		wantErr int               // non-zero: expected failure status
		cancel  bool              // cancel mid-flight
	}
	jobs := []job{
		{name: "lib2-dag", orig: bench.Comparator(6), lib: dagcover.Lib2(),
			req: MapRequest{Library: "lib2"}},
		{name: "lib2-tree", orig: bench.RippleAdder(8), lib: dagcover.Lib2(),
			req: MapRequest{Library: "lib2", Mode: "tree"}},
		{name: "441-dag", orig: bench.ParityTree(12), lib: dagcover.Lib441(),
			req: MapRequest{Library: "44-1"}},
		{name: "441-dag-unit", orig: bench.MuxTree(3), lib: dagcover.Lib441(),
			req: MapRequest{Library: "44-1", Delay: "unit"}},
		{name: "443-dag", orig: bench.Decoder(4), lib: dagcover.Lib443(),
			req: MapRequest{Library: "44-3"}},
		{name: "443-area", orig: bench.CarrySelectAdder(8, 4), lib: dagcover.Lib443(),
			req: MapRequest{Library: "44-3", AreaRecovery: true}},
		{name: "upload-dag", orig: bench.PriorityEncoder(8), lib: dagcover.Lib441(),
			req: MapRequest{Genlib: uploadText}},
		{name: "upload-again", orig: bench.HammingEncoder(8), lib: dagcover.Lib441(),
			req: MapRequest{Genlib: uploadText}},
		{name: "lut", orig: bench.ALU(4), lib: nil,
			req: MapRequest{Mode: "lut", K: 4}},
		{name: "malformed", orig: nil,
			req:     MapRequest{BLIF: ".model bad\n.inputs a\n.outputs o\n.names a ghost o\n11 1\n.end\n"},
			wantErr: http.StatusBadRequest},
		{name: "cancelled", orig: bench.ArrayMultiplier(24),
			req:    MapRequest{Memo: memoOff},
			cancel: true, wantErr: statusClientClosedRequest},
	}
	for i := range jobs {
		if jobs[i].orig != nil && jobs[i].req.BLIF == "" {
			jobs[i].req.BLIF = blifOf(t, jobs[i].orig)
		}
		jobs[i].req.Verify = jobs[i].wantErr == 0
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			ctx := context.Background()
			if j.cancel {
				c, cancel := context.WithCancel(ctx)
				ctx = c
				go func() {
					time.Sleep(25 * time.Millisecond)
					cancel()
				}()
			}
			body, err := json.Marshal(j.req)
			if err != nil {
				errs <- err
				return
			}
			r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body)).WithContext(ctx)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if j.wantErr != 0 {
				if w.Code != j.wantErr {
					errs <- fmt.Errorf("%s: status %d, want %d: %s", j.name, w.Code, j.wantErr, w.Body.String())
				}
				return
			}
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", j.name, w.Code, w.Body.String())
				return
			}
			var resp MapResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- fmt.Errorf("%s: bad JSON: %v", j.name, err)
				return
			}
			if !resp.Verified {
				errs <- fmt.Errorf("%s: response not verified", j.name)
				return
			}
			// Client-side equivalence check, independent of the
			// server's own Verify pass.
			var mapped *network.Network
			if j.lib != nil {
				mapped, err = dagcover.ParseMappedBLIF(strings.NewReader(resp.Netlist), j.lib)
			} else {
				mapped, err = dagcover.ParseBLIF(strings.NewReader(resp.Netlist))
			}
			if err != nil {
				errs <- fmt.Errorf("%s: response netlist does not parse: %v", j.name, err)
				return
			}
			if err := verify.Networks(j.orig, mapped, verify.Options{}); err != nil {
				errs <- fmt.Errorf("%s: not equivalent: %v", j.name, err)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Distinct libraries compiled: lib2, 44-1, 44-3, one upload. The
	// cancelled job targets lib2 and must not force a recompile; the
	// LUT job compiles nothing.
	if _, _, compiles := s.Cache().Counters(); compiles != 4 {
		t.Errorf("compiles = %d, want exactly 4 (one per distinct library)", compiles)
	}
	snap := s.Stats()
	if snap.Requests.OK < 9 {
		t.Errorf("ok = %d, want >= 9", snap.Requests.OK)
	}
	if len(snap.Libraries) == 0 {
		t.Error("per-library stats are empty")
	}
	for name, ls := range snap.Libraries {
		if ls.Requests > 0 && ls.P50Millis < 0 {
			t.Errorf("library %s has negative p50", name)
		}
	}
}

// TestOverloadSheds429 pins the admission-control contract end to end:
// with one slot and no queue, a request arriving while the slot is
// held is shed with 429. The slot is occupied directly through the
// admitter so the test is deterministic regardless of mapping speed.
func TestOverloadSheds429(t *testing.T) {
	s := New(Config{Concurrency: 1, QueueDepth: -1})
	h := s.Handler()
	small := blifOf(t, bench.Comparator(4))

	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, body := post(t, h, nil, MapRequest{BLIF: small})
	if code != http.StatusTooManyRequests {
		t.Fatalf("request while saturated = %d (%s), want 429", code, body)
	}
	s.adm.release()

	code, _, body = post(t, h, nil, MapRequest{BLIF: small})
	if code != http.StatusOK {
		t.Fatalf("request after release = %d (%s), want 200", code, body)
	}
	if snap := s.Stats(); snap.Requests.Overloaded != 1 {
		t.Errorf("overloaded counter = %d, want 1", snap.Requests.Overloaded)
	}
}

// TestElapsedExcludesQueueing pins elapsed_ms to the handler's wall
// time minus queueing, with the result cache on and off: a request
// that waits 300ms for the only admission slot books the wait to the
// queue phase, and neither its elapsed_ms nor the per-library latency
// histogram behind /stats counts it.
func TestElapsedExcludesQueueing(t *testing.T) {
	const hold = 300 * time.Millisecond
	small := blifOf(t, bench.Comparator(4))
	for _, tc := range []struct {
		name  string
		bytes int64
	}{{"cache on", 0}, {"cache off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Concurrency: 1, ResultCacheBytes: tc.bytes, RuntimeSampleEvery: -1})
			t.Cleanup(s.Close)
			if err := s.adm.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			released := make(chan struct{})
			go func() {
				defer close(released)
				for _, queued := s.adm.depth(); queued == 0; _, queued = s.adm.depth() {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(hold)
				s.adm.release()
			}()
			code, resp, body := post(t, s.Handler(), nil, MapRequest{BLIF: small})
			<-released
			if code != http.StatusOK {
				t.Fatalf("queued request = %d: %s", code, body)
			}
			snap := s.Stats()
			if q := snap.PhaseMillis["queue"]; q < millis(hold) {
				t.Fatalf("queue phase = %.1fms, want >= %v: the request never waited", q, hold)
			}
			if resp.ElapsedMillis >= millis(hold) {
				t.Errorf("elapsed_ms = %.1f, want < %v: it counts the admission wait", resp.ElapsedMillis, hold)
			}
			if p99 := snap.Libraries["lib2"].P99Millis; p99 >= millis(hold) {
				t.Errorf("lib2 p99 = %.1fms, want < %v: the latency histogram counts the admission wait", p99, hold)
			}
		})
	}
}

// Guard against the error paths wrapping context errors incorrectly.
func TestContextErrorClassification(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mapper, err := dagcover.CompileLibrary(dagcover.Lib441())
	if err != nil {
		t.Fatal(err)
	}
	_, err = mapper.MapCompiled(ctx, bench.Comparator(6), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCompiled on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestMapEndpointSupergates(t *testing.T) {
	s := New(Config{Concurrency: 2})
	nw := bench.Comparator(6)
	plain := MapRequest{BLIF: blifOf(t, nw), Library: "44-1", Delay: "unit"}
	super := plain
	super.Verify = true
	super.Supergates = &SupergateConfig{MaxInputs: 4, MaxDepth: 2, MaxGates: 128}

	code, rp, body := post(t, s.Handler(), nil, plain)
	if code != http.StatusOK {
		t.Fatalf("plain request = %d: %s", code, body)
	}
	code, rs, body := post(t, s.Handler(), nil, super)
	if code != http.StatusOK {
		t.Fatalf("supergate request = %d: %s", code, body)
	}
	if !rs.Verified {
		t.Error("verify was requested but not reported")
	}
	if rs.Delay >= rp.Delay {
		t.Errorf("supergate delay %v did not improve on plain %v", rs.Delay, rp.Delay)
	}
	if rs.Library != "44-1+sg" {
		t.Errorf("supergate response library = %q, want 44-1+sg", rs.Library)
	}
	if rs.CacheHit {
		t.Error("first supergate request reported a cache hit")
	}

	// The expanded compilation is cached separately from the plain one.
	code, rs2, body := post(t, s.Handler(), nil, super)
	if code != http.StatusOK {
		t.Fatalf("second supergate request = %d: %s", code, body)
	}
	if !rs2.CacheHit {
		t.Error("second supergate request missed the cache")
	}
	if got := s.Cache().Len(); got != 2 {
		t.Errorf("cache entries = %d, want 2 (plain + supergate)", got)
	}

	// /stats reports per-entry pattern counts, with the supergate
	// entry visibly inflated over the plain one.
	snap := s.Stats()
	if len(snap.Cache.Entries) != 2 {
		t.Fatalf("stats cache entries = %d, want 2", len(snap.Cache.Entries))
	}
	byKey := map[string]EntryInfo{}
	for _, e := range snap.Cache.Entries {
		byKey[e.Key] = e
	}
	base, ok := byKey["builtin:44-1"]
	if !ok {
		t.Fatalf("no builtin:44-1 entry in %v", snap.Cache.Entries)
	}
	sg, ok := byKey["builtin:44-1|sg:i4,d2,g128"]
	if !ok {
		t.Fatalf("no supergate entry in %v", snap.Cache.Entries)
	}
	if sg.Gates <= base.Gates || sg.Patterns <= base.Patterns {
		t.Errorf("supergate entry (%d gates, %d patterns) not inflated over base (%d gates, %d patterns)",
			sg.Gates, sg.Patterns, base.Gates, base.Patterns)
	}
}

func TestSupergateConfigClamped(t *testing.T) {
	got := (&SupergateConfig{MaxInputs: 99, MaxDepth: 99, MaxGates: 1 << 20}).normalize()
	want := SupergateConfig{MaxInputs: maxSupergateInputs, MaxDepth: maxSupergateDepth, MaxGates: maxSupergateGates}
	if got != want {
		t.Errorf("normalize = %+v, want %+v", got, want)
	}
	if got := (*SupergateConfig)(nil).normalize(); got != (SupergateConfig{MaxInputs: 4, MaxDepth: 2, MaxGates: 512}) {
		t.Errorf("nil normalize = %+v", got)
	}
}

func TestSupergatesRejectedForLUTMode(t *testing.T) {
	s := New(Config{Concurrency: 1})
	req := MapRequest{
		BLIF:       blifOf(t, bench.Comparator(4)),
		Mode:       "lut",
		Supergates: &SupergateConfig{},
	}
	code, _, body := post(t, s.Handler(), nil, req)
	if code != http.StatusBadRequest {
		t.Fatalf("lut+supergates = %d (%s), want 400", code, body)
	}
}
