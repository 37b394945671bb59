package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/service"
)

// serve-mixed traffic. Every request maps against 44-3 with unit
// delay, like mult-stream. 80% of requests are hits: verbatim repeats
// of a small hot set (served by the result cache's raw-request
// lookaside) and re-serialized repeats (new bytes of a hot circuit,
// which miss the lookaside and hit the subject-digest tier). The rest
// are fresh RandomDAG netlists that always run the engine, some asking
// for verification. With the hit share well away from 50%, p50 falls
// inside the verbatim-hit class and p90 at the middle of the miss
// class.
const (
	serveLib     = "44-3"
	serveDelay   = "unit"
	verbatimFrac = 0.75
	reserialFrac = 0.05
	verifyFrac   = 0.3 // of fresh requests
	gzipMin      = 16 << 10
	// poolSize bounds the fresh netlists with committed digests: enough
	// for 60 s at the default rates, and for a capacity measurement.
	poolSize = 1024
	// setupRoundsServe is how many servers set-up starts before the
	// traffic; setup_s is the median over these and the rounds between
	// segments.
	setupRoundsServe = 3
	// serveSegments is how many light and heavy segments alternate.
	serveSegments = 3
)

// Offered rates (requests/s) and the latency limit behind
// service.goodput_rps;
// -heavy-rps overrides the heavy rate to measure capacity. See
// provenance.json for the capacity measurement the rates came from and
// why heavy sits well below it.
const (
	lightRPS        = 15.0
	defaultHeavyRPS = 45.0
	latencyLimitMS  = 40.0
)

// serveInput is a netlist a request can carry.
type serveInput struct {
	key  string // digest key
	net  *dagcover.Network
	text []byte
}

// serveRequest is one scheduled request. body is the encoded (and,
// above gzipMin, compressed) JSON body.
type serveRequest struct {
	due    time.Duration
	class  string // "verbatim", "reserial" or "fresh"
	in     *serveInput
	verify bool
	body   []byte
	gz     bool
	raw    int
}

// reply is what one request got back.
type reply struct {
	status    int
	err       error
	latency   float64 // ms from due time to the last response byte
	cpu       float64 // process CPU ms from sending the request to the last response byte, at the reference speed
	rawCPU    float64 // the same, as measured
	elapsed   float64 // the server's own elapsed_ms
	cache     string
	nodes     int
	cells     int
	patterns  int
	netSHA    string
	resultSHA string
	verified  bool
	respBytes int
}

func hotCircuits(tiny bool) []string {
	if tiny {
		return []string{"C432", "C880"}
	}
	return []string{"C432", "C880", "C2670", "C3540", "C5315", "C7552"}
}

// poolNetlist is fresh netlist i: a seeded RandomDAG of 250-349
// gates, a narrow range so that the miss class's latency is tight.
func poolNetlist(i int) *dagcover.Network {
	return bench.RandomDAG(16+i%16, 250+(i*37)%100, int64(9001+i))
}

func poolKey(i int) string { return opKey(fmt.Sprintf("pool%d", i), serveLib, "dag") }

func newServeInput(key string, nw *dagcover.Network) (*serveInput, error) {
	var buf bytes.Buffer
	if err := dagcover.WriteBLIF(&buf, nw); err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return &serveInput{key: key, net: nw, text: buf.Bytes()}, nil
}

func hotInputs(tiny bool) ([]*serveInput, error) {
	byName := map[string]*dagcover.Network{}
	for _, c := range bench.FullSuite() {
		byName[c.Name] = c.Network
	}
	var hot []*serveInput
	for _, name := range hotCircuits(tiny) {
		in, err := newServeInput(opKey(name, serveLib, "dag"), byName[name])
		if err != nil {
			return nil, err
		}
		hot = append(hot, in)
	}
	return hot, nil
}

// encodeBody renders a /map body, gzip-compressing it above gzipMin.
func encodeBody(text []byte, verify bool) (body []byte, gz bool, raw int, err error) {
	raw0, err := json.Marshal(service.MapRequest{BLIF: string(text), Library: serveLib, Delay: serveDelay, Verify: verify})
	if err != nil {
		return nil, false, 0, err
	}
	if len(raw0) <= gzipMin {
		return raw0, false, len(raw0), nil
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw0); err != nil {
		return nil, false, 0, err
	}
	if err := zw.Close(); err != nil {
		return nil, false, 0, err
	}
	return buf.Bytes(), true, len(raw0), nil
}

// schedule draws the open-loop arrivals and request classes from the
// seed, as segments that run in turn: light, heavy, light, heavy, ...
// (serveSegments of each), so that both phases sample the machine
// across the whole run. Each segment offers exactly rate x duration
// requests at sorted uniform times (a Poisson process conditioned on
// its count), and each class gets exactly its share in seeded order,
// so two seeds differ in timing and order but not in volume or mix.
func schedule(cfg *config, hot []*serveInput) ([][]*serveRequest, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	perm := rng.Perm(poolSize)
	fresh := 0
	verbatim := map[*serveInput]*serveRequest{}
	var segments [][]*serveRequest
	variant := 0
	for seg := 0; seg < 2*serveSegments; seg++ {
		rate := []float64{lightRPS, cfg.heavyRPS}[seg%2]
		dur := cfg.seconds / 2 / serveSegments
		var reqs []*serveRequest
		n := int(math.Round(rate * dur))
		due := make([]float64, n)
		for i := range due {
			due[i] = rng.Float64() * dur
		}
		sort.Float64s(due)
		nVerbatim := int(math.Round(float64(n) * verbatimFrac))
		nReserial := int(math.Round(float64(n) * reserialFrac))
		nVerify := int(math.Round(float64(n-nVerbatim-nReserial) * verifyFrac))
		classes := make([]string, n)
		for i := range classes {
			switch {
			case i < nVerbatim:
				classes[i] = "verbatim"
			case i < nVerbatim+nReserial:
				classes[i] = "reserial"
			case i < nVerbatim+nReserial+nVerify:
				classes[i] = "verify"
			default:
				classes[i] = "fresh"
			}
		}
		rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		// Repeats cycle through the hot set in a seeded order, so every
		// hot circuit gets the same share of them.
		hotOrder := make([]int, nVerbatim+nReserial)
		for i := range hotOrder {
			hotOrder[i] = i % len(hot)
		}
		rng.Shuffle(len(hotOrder), func(i, j int) { hotOrder[i], hotOrder[j] = hotOrder[j], hotOrder[i] })
		for i, class := range classes {
			r := &serveRequest{due: time.Duration(due[i] * float64(time.Second)), class: class}
			switch class {
			case "verbatim", "reserial":
				r.in = hot[hotOrder[0]]
				hotOrder = hotOrder[1:]
			default:
				if fresh == poolSize {
					return nil, fmt.Errorf("more than %d fresh netlists scheduled; lower --seconds", poolSize)
				}
				k := perm[fresh]
				fresh++
				in, err := newServeInput(poolKey(k), poolNetlist(k))
				if err != nil {
					return nil, err
				}
				r.class, r.in, r.verify = "fresh", in, class == "verify"
			}
			if v, ok := verbatim[r.in]; ok && r.class == "verbatim" {
				r.body, r.gz, r.raw = v.body, v.gz, v.raw
			} else {
				text := r.in.text
				if r.class == "reserial" {
					variant++
					text = reserialize(text, variant)
				}
				var err error
				if r.body, r.gz, r.raw, err = encodeBody(text, r.verify); err != nil {
					return nil, err
				}
				if r.class == "verbatim" {
					verbatim[r.in] = r
				}
			}
			reqs = append(reqs, r)
		}
		segments = append(segments, reqs)
	}
	return segments, nil
}

// reserialize renders a hot circuit's BLIF as another client would:
// same netlist, different bytes (a header comment naming the client,
// and a blank line after every model statement).
func reserialize(text []byte, variant int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# written by client %d\n", variant)
	buf.Write(bytes.ReplaceAll(text, []byte("\n.names"), []byte("\n\n.names")))
	return buf.Bytes()
}

// serveEnv is one running server with its loopback HTTP front.
type serveEnv struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// startServer starts a server with the result cache on and no artifact
// store, compiles the library with a warm-up request and primes the
// hot set. It returns the warm-up request's CPU time and the primed
// responses, which every later repeat must match byte for byte.
func startServer(hot []*serveInput) (*serveEnv, time.Duration, *netlistSet, error) {
	e := &serveEnv{srv: service.New(service.Config{})}
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	fail := func(err error) (*serveEnv, time.Duration, *netlistSet, error) {
		e.close()
		return nil, 0, nil, err
	}
	warm, err := newServeInput("warmup", bench.Comparator(4))
	if err != nil {
		return fail(err)
	}
	c0 := cpuNow()
	if rp, _ := e.post(warm.text); rp.err != nil {
		return fail(fmt.Errorf("warm-up request: %w", rp.err))
	}
	compile := cpuNow() - c0
	primed := newNetlistSet()
	for _, in := range hot {
		rp, netlist := e.post(in.text)
		if rp.err != nil {
			return fail(fmt.Errorf("priming %s: %w", in.key, rp.err))
		}
		primed.add(in, rp, netlist)
	}
	return e, compile, primed, nil
}

// post sends one unscheduled set-up request.
func (e *serveEnv) post(text []byte) (*reply, string) {
	body, gz, _, err := encodeBody(text, false)
	if err != nil {
		return &reply{err: err}, ""
	}
	return e.send(body, gz, time.Now(), nil, -1, -1)
}

// send posts body and decodes the response; latency runs from due.
// It returns the mapped netlist text alongside the reply. Requests go
// out one at a time, so the process's CPU time from send to the last
// response byte is this request's, client and server together.
func (e *serveEnv) send(body []byte, gz bool, due time.Time, tr *tracer, id, root int) (*reply, string) {
	rp := &reply{}
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/map", bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp, ""
	}
	req.Header.Set("Content-Type", "application/json")
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	s := tr.begin(id, root, "http.roundtrip")
	c0 := cpuNow()
	resp, err := e.client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rp.status = resp.StatusCode
	}
	tr.end(s)
	rp.latency, rp.cpu = ms(time.Since(due)), ms(cpuNow()-c0)
	if err != nil {
		rp.err = err
		return rp, ""
	}
	rp.respBytes = len(raw)
	if rp.status != http.StatusOK {
		rp.err = fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(raw))
		return rp, ""
	}
	s = tr.begin(id, root, "http.decode")
	var mr service.MapResponse
	err = json.Unmarshal(raw, &mr)
	tr.end(s)
	if err != nil {
		rp.err = fmt.Errorf("decode response: %w", err)
		return rp, ""
	}
	rp.elapsed, rp.cache, rp.nodes, rp.cells, rp.patterns = mr.ElapsedMillis, mr.ResultCache, mr.SubjectNodes, mr.Cells, mr.PatternsTried
	rp.resultSHA, rp.verified = mr.ResultSHA, mr.Verified
	s = tr.begin(id, root, "check.sha256")
	rp.netSHA = sha256Hex([]byte(mr.Netlist))
	tr.end(s)
	return rp, mr.Netlist
}

// phaseRun is what one phase of open-loop traffic gave.
type phaseRun struct {
	replies  []*reply
	late     []float64
	inflight int64
	wall     time.Duration
}

// runPhase drives one phase's requests open-loop: a dispatcher
// releases each request at its due time to one sender on one client
// connection, so requests reach the server one at a time and each
// one's CPU time can be told apart. Requests due while another is in
// flight wait, and their latency, counted from the due time, includes
// the wait.
//
// Each request's CPU time is scaled to the reference speed by the two
// calibration samples around it: one before the phase, one after, and,
// when calibrateInside is set, one whenever the sender is idle and the
// last sample is calibEvery old. A sample holds up the requests that
// fall due meanwhile, so traced runs, which report wall-clock latency,
// take none inside.
func (e *serveEnv) runPhase(reqs []*serveRequest, tr *tracer, firstID int, netlists *netlistSet, meter *speedMeter, calibrateInside bool) *phaseRun {
	pr := &phaseRun{replies: make([]*reply, len(reqs)), late: make([]float64, len(reqs))}
	// Buffered for every request of the phase, so the dispatcher never
	// waits on the sender and keeps to the schedule.
	ch := make(chan int, len(reqs))
	var inflight, peak atomic.Int64
	done := make(chan struct{})
	meter.sample()
	start := time.Now()
	go func() {
		defer close(done)
		var pending []*reply
		flush := func() {
			f := meter.sample()
			for _, rp := range pending {
				rp.rawCPU, rp.cpu = rp.cpu, rp.cpu*f
			}
			pending = pending[:0]
		}
		for i := range ch {
			r := reqs[i]
			id := firstID + i
			root := tr.begin(id, -1, "op")
			rp, netlist := e.send(r.body, r.gz, start.Add(r.due), tr, id, root)
			c := tr.begin(id, root, "check.output")
			netlists.add(r.in, rp, netlist)
			tr.end(c)
			tr.end(root)
			pr.replies[i] = rp
			pending = append(pending, rp)
			inflight.Add(-1)
			if calibrateInside && len(ch) == 0 && meter.due() {
				flush()
			}
		}
		flush()
	}()
	for i, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		pr.late[i] = ms(time.Since(start.Add(r.due)))
		if n := inflight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		ch <- i
	}
	close(ch)
	<-done
	pr.wall = time.Since(start)
	pr.inflight = peak.Load()
	return pr
}

// netlistSet keeps the first netlist served for each input, checks
// every later one against it, and verifies each distinct one after the
// timed window.
type netlistSet struct {
	mu    sync.Mutex
	first map[string]*reply
	text  map[string]string
	ins   map[string]*serveInput
	wrong []string
}

func newNetlistSet() *netlistSet {
	return &netlistSet{first: map[string]*reply{}, text: map[string]string{}, ins: map[string]*serveInput{}}
}

func (n *netlistSet) add(in *serveInput, rp *reply, netlist string) {
	if rp.status != http.StatusOK || rp.err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	first, ok := n.first[in.key]
	if !ok {
		n.first[in.key], n.text[in.key], n.ins[in.key] = rp, netlist, in
		return
	}
	if rp.netSHA != first.netSHA || rp.resultSHA != first.resultSHA {
		n.wrong = append(n.wrong, fmt.Sprintf("%s: repeat differs from the first response (result_sha %.12s vs %.12s)", in.key, rp.resultSHA, first.resultSHA))
	}
}

// verifyAll checks every distinct netlist served against its committed
// digest and by simulation against its source network.
func (n *netlistSet) verifyAll(o *outcome) {
	lib := dagcover.Lib443()
	for _, key := range sortedKeys(n.first) {
		o.digests[key] = n.first[key].netSHA
		if err := checkDigest(key, n.first[key].netSHA, false); err != nil {
			o.wrongf("%v", err)
		}
		mapped, err := dagcover.ParseMappedBLIF(strings.NewReader(n.text[key]), lib)
		if err == nil {
			err = dagcover.VerifyNetworks(n.ins[key].net, mapped)
		}
		if err != nil {
			o.wrongf("%s: served netlist fails verification: %v", key, err)
		}
	}
	for _, w := range n.wrong {
		o.wrongf("%s", w)
	}
}

func runServe(cfg *config) (*outcome, error) {
	o := newOutcome()
	hot, err := hotInputs(cfg.tiny)
	if err != nil {
		return nil, err
	}
	segments, err := schedule(cfg, hot)
	if err != nil {
		return nil, err
	}

	// Set-up rounds: server start, library compile (warm-up request)
	// and hot-set priming. Like the batch set-up groups, they are spread
	// through the run: setupRoundsServe before the traffic, the last of
	// which keeps its server for the traffic, and one throwaway round
	// after every segment, outside the segment's heap and runtime
	// figures. Each round starts from a collected heap and leaves its
	// garbage collected, and is scaled to the reference speed by
	// calibration samples on either side of it.
	var rounds, rawRounds, compiles []float64
	setupRound := func() (*serveEnv, *netlistSet, error) {
		runtime.GC()
		before := speedSample()
		c0 := cpuNow()
		env, compile, netlists, err := startServer(hot)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		raw := cpuNow() - c0
		f := calibRefMS / ((before + speedSample()) / 2)
		rounds = append(rounds, raw.Seconds()*f)
		rawRounds = append(rawRounds, raw.Seconds())
		compiles = append(compiles, ms(compile)*f)
		return env, netlists, nil
	}
	var env *serveEnv
	var netlists *netlistSet
	for i := 0; i < setupRoundsServe; i++ {
		if env != nil {
			env.close()
		}
		if env, netlists, err = setupRound(); err != nil {
			return nil, err
		}
	}
	defer env.close()
	runtime.GC()
	for _, ent := range env.srv.Cache().Entries() {
		o.values["compile.patterns"] += float64(ent.Patterns)
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var phases [2][]*serveRequest
	runs := [2]*phaseRun{{}, {}}
	var peak uint64
	var cpuTime time.Duration
	var speed []float64
	firstID := 0
	for i, reqs := range segments {
		p := i % 2
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var meter speedMeter
		hs := startHeapSampler()
		c0 := cpuNow()
		pr := env.runPhase(reqs, tr, firstID, netlists, &meter, !cfg.traced)
		cpuTime += cpuNow() - c0 - meter.cpu
		peak = max(peak, hs.stop())
		speed = append(speed, meter.samples...)
		runtime.ReadMemStats(&m1)
		o.runtimeDelta(&m0, &m1)
		firstID += len(reqs)
		phases[p] = append(phases[p], reqs...)
		runs[p].replies = append(runs[p].replies, pr.replies...)
		runs[p].late = append(runs[p].late, pr.late...)
		runs[p].wall += pr.wall
		runs[p].inflight = max(runs[p].inflight, pr.inflight)

		spare, _, err := setupRound()
		if err != nil {
			return nil, err
		}
		spare.close()
		runtime.GC()
	}
	o.values["setup_s"] = quantile(rounds, 0.5)
	o.values["compile.ms."+serveLib] = quantile(compiles, 0.5)
	o.report["setup_rounds_s"] = rounds
	o.report["setup_rounds_unscaled_s"] = rawRounds
	o.report["speed_samples_ms"] = speed

	o.values["peak_heap_mb"] = float64(peak) / 1e6
	o.values["runtime.cpu_wall_ratio"] = ratio(cpuTime.Seconds(), (runs[0].wall + runs[1].wall).Seconds())
	netlists.verifyAll(o)

	serveMetrics(o, phases, runs, netlists, cfg)
	if tr != nil {
		serveTrace(o, tr, cfg)
		return o, tr.writeChrome(cfg.tracePath())
	}
	return o, nil
}

// serveMetrics derives the end-to-end and transport metrics.
func serveMetrics(o *outcome, phases [2][]*serveRequest, runs [2]*phaseRun, netlists *netlistSet, cfg *config) {
	var lat [2][]float64
	var queue, elapsed, hitLat, missLat, late []float64
	var nodes, ok, hits, shed, respBytes, gzRaw, gzWire int
	var cpu, rawCPU []float64
	var cpuTotal, rawTotal float64
	inflight := int64(0)
	good := 0
	byClass := map[string][]float64{}
	for p, pr := range runs {
		late = append(late, pr.late...)
		inflight = max(inflight, pr.inflight)
		for i, rp := range pr.replies {
			r := phases[p][i]
			o.attempted++
			if r.gz {
				gzRaw += r.raw
				gzWire += len(r.body)
			}
			if rp.status == http.StatusTooManyRequests {
				shed++
			}
			if rp.err != nil {
				o.failed++
				if _, seen := o.failures[r.in.key]; !seen {
					o.failures[r.in.key] = rp.err.Error()
				}
				continue
			}
			if r.verify && !rp.verified {
				o.wrongf("%s: asked for verification, response not verified", r.in.key)
			}
			ok++
			nodes += rp.nodes
			cpu = append(cpu, rp.cpu)
			cpuTotal += rp.cpu
			rawCPU = append(rawCPU, rp.rawCPU)
			rawTotal += rp.rawCPU
			respBytes += rp.respBytes
			lat[p] = append(lat[p], rp.latency)
			if p == 1 && rp.latency <= latencyLimitMS {
				good++
			}
			queue = append(queue, rp.latency-rp.elapsed)
			elapsed = append(elapsed, rp.elapsed)
			class := fmt.Sprintf("%s.%d", r.class, p)
			if r.verify {
				class = fmt.Sprintf("verify.%d", p)
			}
			byClass[class] = append(byClass[class], rp.latency)
			if rp.cache == "miss" {
				missLat = append(missLat, rp.latency)
			} else {
				hits++
				hitLat = append(hitLat, rp.latency)
			}
		}
	}
	o.values["cpu_ms.p50"] = quantile(cpu, 0.5)
	o.values["cpu_ms.p90"] = quantile(cpu, 0.9)
	// Served nodes per second of CPU the requests took, client and
	// server together. Open-loop wall time and request count are both
	// fixed by the schedule.
	o.values["nodes_per_s"] = ratio(float64(nodes), cpuTotal/1e3)
	o.report["unscaled"] = map[string]float64{
		"nodes_per_s": ratio(float64(nodes), rawTotal/1e3),
		"cpu_ms.p50":  quantile(rawCPU, 0.5),
		"cpu_ms.p90":  quantile(rawCPU, 0.9),
	}
	// Wall-clock latency from the due time, at each offered rate.
	o.values["service.p50_ms.light"] = quantile(lat[0], 0.5)
	o.values["service.p90_ms.light"] = quantile(lat[0], 0.9)
	o.values["service.p50_ms.heavy"] = quantile(lat[1], 0.5)
	o.values["service.p90_ms.heavy"] = quantile(lat[1], 0.9)
	// Requests served OK within the latency limit, as a share of those
	// offered at the heavy rate, times that rate.
	o.values["service.goodput_rps"] = cfg.heavyRPS * ratio(float64(good), float64(len(runs[1].replies)))
	o.values["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))

	o.values["service.queue_ms.p50"] = quantile(queue, 0.5)
	o.values["service.queue_ms.p90"] = quantile(queue, 0.9)
	o.values["service.elapsed_ms.p50"] = quantile(elapsed, 0.5)
	o.values["service.elapsed_ms.p90"] = quantile(elapsed, 0.9)
	o.values["service.hit_rate"] = ratio(float64(hits), float64(ok))
	o.values["service.hit_p50_ms"] = quantile(hitLat, 0.5)
	o.values["service.miss_p50_ms"] = quantile(missLat, 0.5)
	o.values["service.shed_frac"] = ratio(float64(shed), float64(o.attempted))
	o.values["service.gzip_ratio"] = ratio(float64(gzWire), float64(gzRaw))
	o.values["service.resp_bytes"] = ratio(float64(respBytes), float64(ok))
	o.values["gen.late_ms.p90"] = quantile(late, 0.9)
	o.values["gen.inflight_max"] = float64(inflight)

	// Deterministic counts over the distinct netlists served.
	var distinctNodes, cells, patterns, written int
	for key, rp := range netlists.first {
		distinctNodes += rp.nodes
		cells += rp.cells
		patterns += rp.patterns
		written += len(netlists.text[key])
	}
	o.values["subject.nodes"] = float64(distinctNodes)
	o.values["core.cells"] = float64(cells)
	o.values["core.patterns_tried"] = float64(patterns)
	o.values["blif.write_bytes"] = float64(written)

	o.report["samples"] = map[string]int{"light": len(lat[0]), "heavy": len(lat[1]), "hits": len(hitLat), "misses": len(missLat)}
	classes := map[string][3]float64{}
	for c, xs := range byClass {
		classes[c] = [3]float64{float64(len(xs)), quantile(xs, 0.5), quantile(xs, 0.9)}
	}
	o.report["class_n_p50_p90_ms"] = classes
	o.report["offered_rps"] = map[string]float64{"light": lightRPS, "heavy": cfg.heavyRPS}
	o.report["achieved_rps"] = map[string]float64{
		"light": float64(len(runs[0].replies)) / runs[0].wall.Seconds(),
		"heavy": float64(len(runs[1].replies)) / runs[1].wall.Seconds(),
	}
	fmt.Fprintf(os.Stderr, "light: %d requests offered at %.0f/s in %.2fs; heavy: %d at %.0f/s in %.2fs; hit rate %.2f\n",
		len(runs[0].replies), lightRPS, runs[0].wall.Seconds(), len(runs[1].replies), cfg.heavyRPS, runs[1].wall.Seconds(),
		o.values["service.hit_rate"])
}

// serveTrace prints the client-side self-time table. Open-loop wall
// time is fixed by the schedule, so the tracing overhead is estimated
// as the spans recorded times the measured cost of one span.
func serveTrace(o *outcome, tr *tracer, cfg *config) {
	self := tr.selfTimes()
	var busy time.Duration
	for _, d := range self {
		busy += d
	}
	fmt.Fprintln(os.Stderr, "client-side self time per layer (sum is the sender's busy time):")
	printSelfTimes(os.Stderr, self, busy)
	probe := newTracer()
	const n = 10000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin(0, -1, "probe"))
	}
	perSpan := time.Since(t0) / n
	tr.mu.Lock()
	spans := len(tr.spans)
	tr.mu.Unlock()
	o.values["trace.overhead_ms"] = ms(perSpan * time.Duration(spans))
	fmt.Fprintf(os.Stderr, "tracing overhead: about %.3f ms (%d spans at %v each)\n", o.values["trace.overhead_ms"], spans, perSpan)
	selfMS := map[string]float64{}
	for l, d := range self {
		selfMS[l] = ms(d)
	}
	o.report["self_ms"] = selfMS
}
