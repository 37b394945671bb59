package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/store"
)

// Tests for the whole-result cache: the in-memory SLRU, the disk tier
// behind the artifact store, request coalescing, and the invariant the
// whole design rests on — the mapped netlist is byte-identical whether
// the cache is off, cold, warm, or another request computed it.

// rcKey builds a distinct cache key for SLRU unit tests.
func rcKey(i int) store.Key { return store.KeyOf("test", fmt.Sprintf("k%d", i)) }

func TestResultCacheSLRU(t *testing.T) {
	c := newResultCache(100) // protected budget: 80
	pay := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	c.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	c.put(rcKey(2), rcView{payload: pay(40), sha: "b", genMillis: 2})
	if st := c.stats(); st.entries != 2 || st.bytes != 80 || st.protectedEntries != 0 {
		t.Fatalf("after two inserts: %+v", st)
	}

	// A probation hit promotes; the payload and metadata round-trip.
	v, ok := c.get(rcKey(1))
	if !ok || string(v.payload) != string(pay(40)) || v.sha != "a" || v.genMillis != 1 {
		t.Fatalf("get(1) = %+v %v", v, ok)
	}
	if st := c.stats(); st.protectedEntries != 1 || st.protectedBytes != 40 {
		t.Fatalf("after promotion: %+v", st)
	}

	// Inserting past the budget evicts probation's tail (key 2), never
	// the protected entry.
	c.put(rcKey(3), rcView{payload: pay(40), sha: "c", genMillis: 3})
	if _, ok := c.get(rcKey(2)); ok {
		t.Error("probation tail survived eviction")
	}
	if _, ok := c.get(rcKey(1)); !ok {
		t.Error("protected entry was evicted before probation")
	}
	if _, ok := c.get(rcKey(3)); !ok { // promotes 3 as well
		t.Error("fresh insert missing")
	}

	// With protected full (1 and 3, 80 bytes) and a new insert arriving,
	// the budget still holds: protected's tail (key 1, promoted first
	// but colder than 3's later promotion... order is recency: 3 is
	// front, 1 is back) gives way.
	c.put(rcKey(4), rcView{payload: pay(40), sha: "d", genMillis: 4})
	if st := c.stats(); st.bytes > 100 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if _, ok := c.get(rcKey(1)); ok {
		t.Error("protected tail survived over-budget insert")
	}
	for _, k := range []int{3, 4} {
		if _, ok := c.get(rcKey(k)); !ok {
			t.Errorf("key %d missing after eviction round", k)
		}
	}

	// Duplicate put refreshes recency without duplicating bytes (the
	// key is a content address, so same key means same payload).
	before := c.stats().bytes
	c.put(rcKey(4), rcView{payload: pay(40), sha: "d", genMillis: 4})
	if after := c.stats().bytes; after != before {
		t.Errorf("duplicate put changed bytes %d -> %d", before, after)
	}

	// A payload over the whole budget is not cached at all.
	c.put(rcKey(5), rcView{payload: pay(101), sha: "e", genMillis: 5})
	if _, ok := c.get(rcKey(5)); ok {
		t.Error("oversized payload was cached")
	}
}

func TestResultCacheRawLookaside(t *testing.T) {
	pay := func(n int) []byte { return bytes.Repeat([]byte{'y'}, n) }
	rawOf := func(i int) store.Key { return store.KeyOf("raw", fmt.Sprintf("r%d", i)) }

	c := newResultCache(100)
	c.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	// Linking to an absent entry is a no-op, not a dangling alias.
	c.link(rawOf(0), rcKey(99))
	if _, ok := c.getRaw(rawOf(0)); ok {
		t.Error("alias to a missing entry resolved")
	}
	c.link(rawOf(1), rcKey(1))
	if v, ok := c.getRaw(rawOf(1)); !ok || v.sha != "a" || v.genMillis != 1 || len(v.payload) != 40 {
		t.Fatalf("raw lookup = %v %+v", ok, v)
	}
	// A raw hit promotes exactly like a canonical hit.
	if st := c.stats(); st.protectedEntries != 1 {
		t.Errorf("raw hit did not promote: %+v", st)
	}
	// Two raw keys (different BLIF formatting) may alias one entry.
	c.link(rawOf(2), rcKey(1))
	if v, ok := c.getRaw(rawOf(2)); !ok || v.sha != "a" {
		t.Error("second alias unresolved")
	}

	// Eviction takes the aliases with the entry.
	c2 := newResultCache(100)
	c2.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	c2.link(rawOf(1), rcKey(1))
	c2.put(rcKey(2), rcView{payload: pay(40), sha: "b", genMillis: 2})
	c2.put(rcKey(3), rcView{payload: pay(40), sha: "c", genMillis: 3}) // evicts key 1, probation's tail
	if _, ok := c2.get(rcKey(1)); ok {
		t.Fatal("key 1 survived eviction")
	}
	if _, ok := c2.getRaw(rawOf(1)); ok {
		t.Error("raw alias outlived its entry")
	}
	// Re-inserting relinks cleanly.
	c2.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	c2.link(rawOf(1), rcKey(1))
	if v, ok := c2.getRaw(rawOf(1)); !ok || v.sha != "a" {
		t.Error("relink after re-insert failed")
	}
}

func TestSpliceCachedResponse(t *testing.T) {
	tr := true
	orig := &MapResponse{
		Circuit: "c", Library: "lib2", Mode: "dag",
		Netlist: ".model c\n.gate nand2 a=x b=y O=z \" quote\n.end\n",
		Delay:   3.5, Area: 7, Cells: 2, PatternsTried: 11,
		SGStoreHit: &tr, SGArtifactSHA: "deadbeef", SubjectSHA: "feedface",
		Verified: true,
	}
	payload, sha, err := encodeResultPayload(orig)
	if err != nil {
		t.Fatal(err)
	}
	spliced, ok := spliceCachedResponse(payload, 1.25, "trace-1", "hit-mem", sha)
	if !ok {
		t.Fatal("canonical payload did not splice")
	}
	var got MapResponse
	if err := json.Unmarshal(spliced, &got); err != nil {
		t.Fatalf("spliced output is not valid JSON: %v\n%s", err, spliced)
	}
	// The spliced response must decode to exactly what the slow path
	// (cachedResponse plus the volatile fields) produces.
	want, err := cachedResponse(rcView{payload: payload, sha: sha}, "hit-mem")
	if err != nil {
		t.Fatal(err)
	}
	want.ElapsedMillis = 1.25
	want.TraceID = "trace-1"
	gw, _ := json.Marshal(&got)
	ww, _ := json.Marshal(want)
	if string(gw) != string(ww) {
		t.Errorf("splice and decode paths disagree:\n  splice: %s\n  decode: %s", gw, ww)
	}
	if !got.CacheHit || got.ResultCache != "hit-mem" || got.Netlist != orig.Netlist {
		t.Errorf("spliced fields wrong: %+v", got)
	}

	// A payload that does not match the canonical shape refuses to
	// splice instead of producing garbage.
	for _, bad := range [][]byte{
		[]byte(`{"circuit":"c","elapsed_ms":1}`),   // non-zero tail
		[]byte(`{"circuit":"c","cache_hit":true}`), // no canonical tail
		[]byte(`{"circuit":"c"}`),                  // neither field
	} {
		if _, ok := spliceCachedResponse(bad, 1, "t", "hit-mem", "s"); ok {
			t.Errorf("non-canonical payload %s spliced", bad)
		}
	}
}

// rawMap posts one /map request without test-fatal error handling, so
// it is safe to call from concurrent goroutines.
func rawMap(h http.Handler, ctx context.Context, body []byte) (int, MapResponse) {
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body))
	if ctx != nil {
		r = r.WithContext(ctx)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp MapResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	return w.Code, resp
}

func TestMapResultCacheTiers(t *testing.T) {
	dir := t.TempDir()
	req := MapRequest{BLIF: blifOf(t, bench.Comparator(8)), Library: "44-3"}

	// Baseline: caching disabled entirely.
	off := New(Config{Concurrency: 2, ResultCacheBytes: -1})
	code, r0, body := post(t, off.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cache-off request = %d: %s", code, body)
	}
	if r0.ResultCache != "" || r0.ResultSHA != "" {
		t.Errorf("cache-off response carries cache fields: %q %q", r0.ResultCache, r0.ResultSHA)
	}
	if r0.SubjectSHA == "" {
		t.Error("cache-off response has no subject digest")
	}

	// Cold cache-on server: miss, compute, publish to memory and disk.
	s1 := New(Config{Concurrency: 2, Store: openStore(t, dir)})
	code, r1, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cold request = %d: %s", code, body)
	}
	if r1.ResultCache != "miss" {
		t.Fatalf("cold result_cache = %q, want miss", r1.ResultCache)
	}
	if r1.ResultSHA == "" || r1.SubjectSHA == "" {
		t.Fatal("cold response missing result/subject digests")
	}
	if r1.Netlist != r0.Netlist {
		t.Error("cache-on netlist differs from cache-off netlist")
	}
	if r1.SubjectSHA != r0.SubjectSHA {
		t.Error("subject digest differs between servers for the same circuit")
	}

	// Warm repeat: in-memory hit, identical payload, and — the point of
	// the cache — zero additional matcher work.
	patterns := s1.Stats().PatternsTried
	code, r2, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", code, body)
	}
	if r2.ResultCache != "hit-mem" {
		t.Fatalf("warm result_cache = %q, want hit-mem", r2.ResultCache)
	}
	if r2.Netlist != r1.Netlist || r2.ResultSHA != r1.ResultSHA {
		t.Error("warm response differs from cold response")
	}
	if !r2.CacheHit {
		t.Error("warm response not marked cache_hit")
	}
	if got := s1.Stats().PatternsTried; got != patterns {
		t.Errorf("warm hit did matcher work: patterns %d -> %d", patterns, got)
	}

	// Warm restart: a fresh process on the same store directory serves
	// from disk without any label-phase work at all.
	s2 := New(Config{Concurrency: 2, Store: openStore(t, dir)})
	code, r3, body := post(t, s2.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("restart request = %d: %s", code, body)
	}
	if r3.ResultCache != "hit-disk" {
		t.Fatalf("restart result_cache = %q, want hit-disk", r3.ResultCache)
	}
	if r3.Netlist != r1.Netlist || r3.ResultSHA != r1.ResultSHA {
		t.Error("disk-served response differs from the recorded run")
	}
	if got := s2.Stats().PatternsTried; got != 0 {
		t.Errorf("disk hit did matcher work: %d patterns tried", got)
	}
	// The disk hit also warms the restarted process's memory tier.
	code, r4, _ := post(t, s2.Handler(), nil, req)
	if code != http.StatusOK || r4.ResultCache != "hit-mem" {
		t.Fatalf("post-restart repeat = %d %q, want 200 hit-mem", code, r4.ResultCache)
	}

	// Options are part of the key: flipping one forces a fresh run.
	alt := req
	alt.Delay = "unit"
	code, r5, body := post(t, s2.Handler(), nil, alt)
	if code != http.StatusOK {
		t.Fatalf("alt-options request = %d: %s", code, body)
	}
	if r5.ResultCache != "miss" {
		t.Errorf("alt-options result_cache = %q, want miss", r5.ResultCache)
	}
	// (No assertion on r5.ResultSHA vs r1's: the digest addresses the
	// result's content, and on this circuit unit and intrinsic delay
	// happen to pick the identical netlist.)

	// lut mode is not cacheable and takes the legacy path untouched.
	lut := MapRequest{BLIF: req.BLIF, Mode: "lut", K: 4}
	code, r6, body := post(t, s2.Handler(), nil, lut)
	if code != http.StatusOK {
		t.Fatalf("lut request = %d: %s", code, body)
	}
	if r6.ResultCache != "" {
		t.Errorf("lut response carries result_cache %q", r6.ResultCache)
	}

	// /stats and /metrics expose the tiered counters, and the wide
	// event log attributes each request's cache path.
	snap := s2.Stats()
	if snap.ResultCache == nil {
		t.Fatal("stats snapshot has no result_cache block")
	}
	if snap.ResultCache.DiskHits != 1 || snap.ResultCache.MemHits != 1 {
		t.Errorf("restart server hits = mem %d disk %d, want 1/1",
			snap.ResultCache.MemHits, snap.ResultCache.DiskHits)
	}
	if snap.ResultCache.Entries < 1 || snap.ResultCache.Bytes <= 0 {
		t.Errorf("memory tier reports %d entries / %d bytes", snap.ResultCache.Entries, snap.ResultCache.Bytes)
	}
	mr := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mw := httptest.NewRecorder()
	s2.Handler().ServeHTTP(mw, mr)
	for _, want := range []string{
		`mapd_result_cache_hits_total{tier="mem"} 1`,
		`mapd_result_cache_hits_total{tier="disk"} 1`,
		"mapd_result_cache_misses_total",
		"mapd_result_cache_bytes",
	} {
		if !strings.Contains(mw.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	er := httptest.NewRequest(http.MethodGet, "/debug/events?limit=20", nil)
	ew := httptest.NewRecorder()
	s2.Handler().ServeHTTP(ew, er)
	for _, want := range []string{`"result_cache":"hit-disk"`, `"result_cache":"miss"`, `"subject_sha":"` + r1.SubjectSHA} {
		if !strings.Contains(ew.Body.String(), want) {
			t.Errorf("/debug/events missing %q", want)
		}
	}
}

func TestMapCoalescingSingleFlight(t *testing.T) {
	// A deliberately slow request (structural memo off) so every
	// concurrent copy arrives while the leader is still mapping.
	memo := false
	req := MapRequest{BLIF: blifOf(t, bench.ArrayMultiplier(24)), Library: "lib2", Memo: &memo}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Concurrency: 2})
	const n = 8
	codes := make([]int, n)
	resps := make([]MapResponse, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], resps[i] = rawMap(s.Handler(), nil, body)
		}(i)
	}
	close(start)
	wg.Wait()

	var missIdx = -1
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d", i, codes[i])
		}
		if resps[i].Netlist != resps[0].Netlist || resps[i].ResultSHA != resps[0].ResultSHA {
			t.Fatalf("request %d response differs from request 0", i)
		}
		if resps[i].ResultCache == "miss" {
			if missIdx >= 0 {
				t.Fatalf("two miss-labeled responses: %d and %d", missIdx, i)
			}
			missIdx = i
		}
	}
	if missIdx < 0 {
		t.Fatal("no response was labeled miss")
	}

	// The counters prove a single engine run: one miss, every other
	// request either coalesced onto it or (arriving after it finished)
	// hit the freshly populated memory tier — and the process-wide
	// matcher work equals exactly one run's.
	snap := s.Stats()
	rc := snap.ResultCache
	if rc == nil {
		t.Fatal("no result_cache stats")
	}
	if rc.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 engine run", rc.Misses)
	}
	if rc.Coalesced+rc.MemHits != n-1 {
		t.Errorf("coalesced %d + mem hits %d != %d", rc.Coalesced, rc.MemHits, n-1)
	}
	if snap.PatternsTried != uint64(resps[missIdx].PatternsTried) {
		t.Errorf("process tried %d patterns, single run tried %d — extra engine work happened",
			snap.PatternsTried, resps[missIdx].PatternsTried)
	}
}

func TestCoalescingLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	memo := false
	req := MapRequest{BLIF: blifOf(t, bench.ArrayMultiplier(32)), Library: "lib2", Memo: &memo}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Concurrency: 2})

	// Leader starts under a cancellable context...
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderCode := make(chan int, 1)
	go func() {
		code, _ := rawMap(s.Handler(), leaderCtx, body)
		leaderCode <- code
	}()
	// ...and once it holds the admission slot, followers pile on.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Queue.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started running")
		}
		time.Sleep(time.Millisecond)
	}
	const n = 4
	codes := make([]int, n)
	resps := make([]MapResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i] = rawMap(s.Handler(), nil, body)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the flight
	cancel()

	wg.Wait()
	// The canceled leader settles as 499 (or 200 when the run beat the
	// cancel); its failure must not propagate to the followers, whose
	// own contexts are intact — one re-elects and finishes the mapping.
	if code := <-leaderCode; code != statusClientClosedRequest && code != http.StatusOK {
		t.Errorf("leader status = %d, want 499 or 200", code)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("follower %d = %d, poisoned by leader cancel", i, codes[i])
		}
		if resps[i].Netlist == "" || resps[i].Netlist != resps[0].Netlist || resps[i].ResultSHA != resps[0].ResultSHA {
			t.Fatalf("follower %d response differs", i)
		}
	}
}

// waitFollowers blocks until n requests have joined the flight for
// key behind its leader.
func waitFollowers(t *testing.T, s *Server, key store.Key, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.flights.mu.Lock()
		fl := s.flights.flight[key]
		joined := fl != nil && fl.followers >= n
		s.flights.mu.Unlock()
		if joined {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d followers never joined the flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedFollowersAdoptLeaderFailure covers the deterministic
// failures a coalescing leader hands its followers: a shed (429) and
// an input the mapper rejects (400, an uploaded genlib with no
// NAND2/INV basis). Every follower adopts the leader's status instead
// of running, and each request is counted once in
// mapd_requests_total.
func TestCoalescedFollowersAdoptLeaderFailure(t *testing.T) {
	const followers = 4
	blif := blifOf(t, bench.Comparator(4))
	noBasis := "GATE and2 2.0 O=a*b;\nPIN * NONINV 1 999 1.0 0.2 1.0 0.2\n" +
		"GATE buf 1.0 O=a;\nPIN a NONINV 1 999 1.0 0.2 1.0 0.2\n"

	// sendAll posts body from n goroutines and returns their statuses
	// on a channel closed once all have finished.
	sendAll := func(s *Server, body []byte, n int) <-chan int {
		codes := make(chan int, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, _ := rawMap(s.Handler(), nil, body)
				codes <- code
			}()
		}
		go func() { wg.Wait(); close(codes) }()
		return codes
	}
	check := func(t *testing.T, s *Server, codes <-chan int, want, n int, result string) {
		t.Helper()
		for code := range codes {
			if code != want {
				t.Errorf("request = %d, want %d", code, want)
			}
		}
		samples := scrapeOnly(t, s)
		if got := samples[`mapd_requests_total{result="`+result+`"}`]; got != float64(n) {
			t.Errorf("mapd_requests_total{result=%q} = %v, want %d", result, got, n)
		}
		if got := samples["mapd_requests_received_total"]; got != float64(n) {
			t.Errorf("mapd_requests_received_total = %v, want %d", got, n)
		}
		var total float64
		for _, label := range resultLabels {
			total += samples[`mapd_requests_total{result="`+label+`"}`]
		}
		if total != float64(n) {
			t.Errorf("mapd_requests_total sums to %v over results, want %d", total, n)
		}
	}

	t.Run("shed", func(t *testing.T) {
		s := New(Config{Concurrency: 1, RuntimeSampleEvery: -1})
		t.Cleanup(s.Close)
		req := MapRequest{BLIF: blif, Library: "lib2"}
		body, _ := json.Marshal(req)
		// The test leads the flight itself, so the followers are known to
		// be waiting when the leader's admission sheds.
		c, err := s.normalize(&req, &reqPhases{})
		if err != nil {
			t.Fatal(err)
		}
		if _, tier, err := s.lookup(c); err != nil || tier != "" {
			t.Fatalf("lookup = %q, %v; want a miss", tier, err)
		}
		fl, leader := s.flights.join(c.key)
		if !leader {
			t.Fatal("test did not lead the flight")
		}
		codes := sendAll(s, body, followers)
		waitFollowers(t, s, c.key, followers)
		s.flights.leaderDone(c.key, fl, s.failed(errOverloaded, c))
		check(t, s, codes, http.StatusTooManyRequests, followers, "overloaded")
	})

	t.Run("rejected", func(t *testing.T) {
		s := New(Config{Concurrency: 1, RuntimeSampleEvery: -1})
		t.Cleanup(s.Close)
		body, _ := json.Marshal(MapRequest{BLIF: blif, Genlib: noBasis})
		// Hold the only slot so the leader queues inside its flight until
		// every follower has joined.
		if err := s.adm.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		leaderCode := sendAll(s, body, 1)
		for _, queued := s.adm.depth(); queued == 0; _, queued = s.adm.depth() {
			time.Sleep(time.Millisecond)
		}
		var key store.Key
		s.flights.mu.Lock()
		for k := range s.flights.flight {
			key = k
		}
		s.flights.mu.Unlock()
		codes := sendAll(s, body, followers)
		waitFollowers(t, s, key, followers)
		s.adm.release()
		if code := <-leaderCode; code != http.StatusBadRequest {
			t.Errorf("leader = %d, want 400", code)
		}
		check(t, s, codes, http.StatusBadRequest, followers+1, "bad_request")
		// One engine run: only the leader's wide event has map time.
		var ev eventsResponse
		getJSON(t, s.Handler(), "/debug/events", &ev)
		ran := 0
		for _, e := range ev.Events {
			if e.PhaseMillis["map"] > 0 {
				ran++
			}
		}
		if ev.Returned != followers+1 || ran != 1 {
			t.Errorf("%d wide events, %d with an engine run; want %d and 1", ev.Returned, ran, followers+1)
		}
	})
}

func TestJobItemsUseResultCache(t *testing.T) {
	s := New(Config{Concurrency: 2})

	// Pre-warm with a sync request, then submit a batch containing the
	// same circuit twice plus a fresh one.
	warm := MapRequest{BLIF: blifOf(t, bench.Comparator(8)), Library: "lib2"}
	if code, _, body := post(t, s.Handler(), nil, warm); code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", code, body)
	}
	items := []JobItemRequest{
		{Name: "warmed", BLIF: warm.BLIF},
		{Name: "fresh", BLIF: blifOf(t, bench.Comparator(10))},
		{Name: "warmed-again", BLIF: warm.BLIF},
	}
	code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items, Library: "lib2"})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	if st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, time.Minute); !ok || st.State != "done" {
		t.Fatalf("job state = %+v", st)
	}

	r := httptest.NewRequest(http.MethodGet, "/jobs/"+acc.JobID+"/result", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	var recs []JobItemRecord
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var rec JobItemRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]JobItemRecord{}
	for _, rec := range recs {
		if rec.Status != http.StatusOK || rec.Response == nil {
			t.Fatalf("record %q = %d", rec.Name, rec.Status)
		}
		if rec.ResponseBytes <= 0 {
			t.Errorf("record %q has response_bytes %d, want > 0", rec.Name, rec.ResponseBytes)
		}
		byName[rec.Name] = rec
	}
	// Both copies of the warmed circuit come from the cache, and the
	// netlists match the sync run exactly; the fresh circuit misses.
	for _, name := range []string{"warmed", "warmed-again"} {
		if got := byName[name].Response.ResultCache; got != "hit-mem" {
			t.Errorf("%s result_cache = %q, want hit-mem", name, got)
		}
	}
	if got := byName["fresh"].Response.ResultCache; got != "miss" {
		t.Errorf("fresh result_cache = %q, want miss", got)
	}
	if byName["warmed"].Response.Netlist != byName["warmed-again"].Response.Netlist {
		t.Error("cached item netlists differ")
	}
	snap := s.Stats()
	if snap.ResultCache == nil || snap.ResultCache.MemHits < 2 {
		t.Fatalf("result cache stats = %+v, want >= 2 mem hits", snap.ResultCache)
	}
}
