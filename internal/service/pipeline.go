package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"dagcover"
	"dagcover/internal/store"
)

// The mapping-request pipeline. Every /map request and every batch-job
// item takes the same path:
//
//	normalize → lookup → [flight → admit] → run → publish → respond
//
// normalize validates the request before any work is done. lookup
// answers it from the result cache or leaves the parsed input for a
// run. run resolves the library and maps; publish writes a fresh
// result to the cache tiers. respond (Server.respond for /map,
// runJobItem for job items) renders the outcome. A /map request joins
// the coalescing flight for its result key and takes an admission slot
// before it runs. A job item runs under its batch's slot with its
// batch's library and never joins a flight: waiting on a leader that
// needs the slot the batch holds could deadlock the pool.

// builtinLibraries are the libraries a request may name.
var builtinLibraries = map[string]func() *dagcover.Library{
	"lib2": dagcover.Lib2,
	"44-1": dagcover.Lib441,
	"44-3": dagcover.Lib443,
}

// mapCall is one request moving through the pipeline: the validated
// request plus what each stage learned about it.
type mapCall struct {
	req     *MapRequest
	mode    string // dag, tree or lut
	opt     dagcover.MapOptions
	timeout time.Duration
	// libKey is the compiled-library cache key — the single source of
	// truth the result cache keys off too — and load reads the library
	// it names. Both are empty in lut mode.
	libKey string
	load   func() (*dagcover.Library, error)
	// lib is the resolved library: a batch's, set before its items
	// run, or nil until run resolves it for a /map request.
	lib *compiled
	// cached reports whether the result cache serves this request: it
	// is on and the mode maps against a gate library.
	cached bool

	nw          *dagcover.Network
	g           *dagcover.SubjectGraph
	key, rawKey store.Key
	ph          *reqPhases
}

// compiled is a resolved library: the compiled entry, whether the
// cache already held it, and the supergate artifact identity (nil
// without supergates or an artifact store).
type compiled struct {
	cl  *dagcover.CompiledLibrary
	hit bool
	sg  *dagcover.SupergateStoreInfo
}

// outcome is what the pipeline made of one request: a fresh response
// (resp), a cached payload (view, with resp nil), or a failure (a
// status other than 200, with errMsg). tier is the result_cache label,
// empty with the cache off.
type outcome struct {
	status int
	errMsg string
	resp   *MapResponse
	view   rcView
	tier   string
}

func failedWith(status int, format string, args ...any) outcome {
	return outcome{status: status, errMsg: fmt.Sprintf(format, args...)}
}

// normalize validates a request's mode, match class, delay model and
// library, derives the engine options and the compiled-library key,
// and resolves the request's deadline against the server's default
// and cap.
func (s *Server) normalize(req *MapRequest, ph *reqPhases) (*mapCall, error) {
	c := &mapCall{req: req, mode: req.Mode, timeout: s.cfg.DefaultTimeout, ph: ph}
	if req.TimeoutMillis > 0 {
		c.timeout = min(time.Duration(req.TimeoutMillis)*time.Millisecond, s.cfg.MaxTimeout)
	}
	if c.mode == "" {
		c.mode = "dag"
	}
	ph.mode = c.mode
	switch c.mode {
	case "lut":
		if req.Supergates != nil {
			return nil, errors.New("supergates apply to gate-library modes (dag, tree), not lut")
		}
		return c, nil
	case "dag", "tree":
	default:
		return nil, fmt.Errorf("unknown mode %q (want dag, tree, or lut)", c.mode)
	}
	switch req.Delay {
	case "", "intrinsic":
		c.opt.Delay = dagcover.IntrinsicDelay
	case "unit":
		c.opt.Delay = dagcover.UnitDelay
	default:
		return nil, fmt.Errorf("unknown delay model %q", req.Delay)
	}
	switch req.Class {
	case "", "standard":
		c.opt.Class = dagcover.MatchStandard
	case "extended":
		c.opt.Class = dagcover.MatchExtended
	default:
		return nil, fmt.Errorf("unknown match class %q", req.Class)
	}
	c.opt.AreaRecovery, c.opt.RequiredTime = req.AreaRecovery, req.RequiredTime
	c.opt.Parallelism = s.cfg.Parallelism
	if req.Memo != nil && !*req.Memo {
		c.opt.Memo = dagcover.MemoOff
	}

	if req.Genlib != "" {
		// Uploads are keyed by content hash and named by its prefix, so
		// per-library stats tell uploads apart without trusting client
		// names.
		c.libKey = HashGenlib(req.Genlib)
		name := "upload-" + strings.TrimPrefix(c.libKey, "sha256:")[:8]
		c.load = func() (*dagcover.Library, error) {
			return dagcover.LoadLibrary(name, strings.NewReader(req.Genlib))
		}
	} else {
		name := req.Library
		if name == "" {
			name = "lib2"
		}
		builtin, ok := builtinLibraries[name]
		if !ok {
			names := make([]string, 0, len(builtinLibraries))
			for n := range builtinLibraries {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown library %q (built-ins: %s; or upload genlib text)", name, strings.Join(names, ", "))
		}
		c.libKey = BuiltinKey(name)
		c.load = func() (*dagcover.Library, error) { return builtin(), nil }
	}
	// Supergate generation is deterministic, so the normalized bounds
	// pin the expanded library without expanding anything.
	if req.Supergates != nil {
		c.libKey += req.Supergates.normalize().cacheSuffix()
	}
	c.cached = s.resultCache != nil
	return c, nil
}

// process takes a normalized request to its outcome. admitted reports
// that the caller already holds an admission slot — a job item, under
// its batch's — so the request neither queues nor joins a flight.
func (s *Server) process(ctx context.Context, c *mapCall, admitted bool) outcome {
	v, tier, err := s.lookup(c)
	var o outcome
	switch {
	case err != nil:
		o = failedWith(http.StatusBadRequest, "%v", err)
	case tier != "":
		o = outcome{status: http.StatusOK, view: v, tier: tier}
	case admitted:
		o = s.runPublish(ctx, c)
	case c.cached:
		o = s.coalesce(ctx, c)
	default:
		o = s.admitRun(ctx, c)
	}
	if o.status == http.StatusOK && o.resp == nil {
		// Served from a cached payload: the entry knows its library and,
		// for a raw-lookaside hit that never parsed, its subject graph.
		c.ph.library, c.ph.cacheHit = o.view.library, true
		if c.ph.subjectSHA == "" {
			c.ph.subjectSHA = o.view.subjectSHA
		}
	}
	c.ph.resultCache = o.tier
	return o
}

// lookup answers c from the result cache or prepares it for a run. The
// raw-request lookaside comes first: hashing the request bytes costs
// orders of magnitude less than parsing a large netlist. Then it
// parses, builds and digests the subject graph and tries the memory
// and disk tiers by digest. With the result cache off, or in lut mode,
// it only parses and builds. A hit returns its view and tier; a miss
// returns an empty tier.
func (s *Server) lookup(c *mapCall) (rcView, string, error) {
	if c.cached {
		sum := sha256.Sum256([]byte(c.req.BLIF))
		c.rawKey = rawRequestKey(hex.EncodeToString(sum[:]), c.libKey, c.mode, c.req)
		if v, ok := s.resultCache.getRaw(c.rawKey); ok {
			s.metrics.rcMemHits.Add(1)
			return v, resultHitMem, nil
		}
	}
	t0 := time.Now()
	err := c.parse()
	c.ph.d[phaseParse] = time.Since(t0)
	if err != nil || !c.cached {
		return rcView{}, "", err
	}
	c.key = resultKey(c.ph.subjectSHA, c.libKey, c.mode, c.req)
	if v, ok := s.resultCache.get(c.key); ok {
		s.metrics.rcMemHits.Add(1)
		s.resultCache.link(c.rawKey, c.key)
		return v, resultHitMem, nil
	}
	if s.store != nil {
		if e, ok := s.store.Get(resultKind, c.key); ok {
			// The subject digest comes from this request rather than the
			// entry header, so an entry written by an older header layout
			// still serves correctly.
			v := rcView{payload: e.Data, sha: e.SHA, genMillis: e.GenMillis,
				library: e.Meta["library"], subjectSHA: c.ph.subjectSHA}
			s.resultCache.put(c.key, v)
			s.resultCache.link(c.rawKey, c.key)
			s.metrics.rcDiskHits.Add(1)
			return v, resultHitDisk, nil
		}
	}
	return rcView{}, "", nil
}

// parse reads the request's BLIF and, for gate-library modes, builds
// and digests its subject graph.
func (c *mapCall) parse() (err error) {
	if c.nw, err = dagcover.ParseBLIF(strings.NewReader(c.req.BLIF)); err != nil || c.mode == "lut" {
		return err
	}
	if c.g, err = dagcover.BuildSubject(c.nw); err != nil {
		return err
	}
	c.ph.subjectSHA = c.g.Digest()
	return nil
}

// coalesce runs c under the single-flight group for its result key.
// The first request in leads: it admits, runs and publishes. Identical
// requests arriving meanwhile wait for its outcome without holding an
// admission slot. They replay a leader's success and adopt a
// deterministic failure (a shed, a rejected input) as their own. A
// leader that died of its own context (client gone, per-request
// deadline) leaves their budgets intact, so they re-check the cache
// and elect a new leader.
func (s *Server) coalesce(ctx context.Context, c *mapCall) outcome {
	for {
		fl, leader := s.flights.join(c.key)
		if leader {
			o := s.admitRun(ctx, c)
			s.flights.leaderDone(c.key, fl, o)
			return o
		}
		wait0 := time.Now()
		select {
		case <-fl.done:
			c.ph.d[phaseQueue] += time.Since(wait0)
		case <-ctx.Done():
			c.ph.d[phaseQueue] += time.Since(wait0)
			return s.failed(ctx.Err(), c)
		}
		o := fl.out
		switch o.status {
		case http.StatusOK:
			s.metrics.rcCoalesced.Add(1)
			s.resultCache.link(c.rawKey, c.key)
			o.tier = resultCoalesced
			return o
		case http.StatusGatewayTimeout, statusClientClosedRequest:
			if v, ok := s.resultCache.get(c.key); ok {
				s.metrics.rcMemHits.Add(1)
				return outcome{status: http.StatusOK, view: v, tier: resultHitMem}
			}
			continue
		}
		return o
	}
}

// admitRun holds an admission slot — which bounds library compilation
// as well as the engine run — across run and publish.
func (s *Server) admitRun(ctx context.Context, c *mapCall) outcome {
	t0 := time.Now()
	err := s.adm.acquire(ctx)
	c.ph.d[phaseQueue] += time.Since(t0)
	if err != nil {
		return s.failed(err, c)
	}
	defer s.adm.release()
	return s.runPublish(ctx, c)
}

// runPublish runs the mapping and, with the result cache on,
// publishes the fresh result.
func (s *Server) runPublish(ctx context.Context, c *mapCall) outcome {
	resp, err := s.run(ctx, c)
	switch {
	case err != nil:
		return s.failed(err, c)
	case !c.cached:
		return outcome{status: http.StatusOK, resp: resp}
	}
	return s.publish(c, resp)
}

// publish writes a fresh result to the memory tier and the disk tier.
// The outcome's view is what a coalescing leader hands its followers.
func (s *Server) publish(c *mapCall, resp *MapResponse) outcome {
	t0 := time.Now()
	defer func() { c.ph.d[phaseRespond] += time.Since(t0) }()
	payload, sha, err := encodeResultPayload(resp)
	if err != nil {
		return failedWith(http.StatusInternalServerError, "%v", err)
	}
	s.metrics.rcMisses.Add(1)
	o := outcome{status: http.StatusOK, resp: resp, tier: resultMiss,
		view: rcView{payload: payload, sha: sha, genMillis: millis(c.ph.d[phaseMap]),
			library: resp.Library, subjectSHA: resp.SubjectSHA}}
	resp.ResultCache, resp.ResultSHA = resultMiss, sha
	s.resultCache.put(c.key, o.view)
	s.resultCache.link(c.rawKey, c.key)
	if s.store != nil {
		// The metadata lets a future process serve the entry without
		// decoding it. A failed write is counted; the response stands.
		err := s.store.Put(resultKind, c.key, payload, o.view.genMillis, map[string]string{
			"circuit": resp.Circuit, "library": resp.Library, "mode": c.mode, "subject_sha": resp.SubjectSHA})
		if err != nil {
			s.metrics.rcStoreErrors.Add(1)
		} else {
			s.metrics.rcStores.Add(1)
		}
	}
	return o
}

// runError marks a run error that is the server's fault, not the
// input's — a failed verification, an encoding error — with the status
// it earns. Other run errors are input the engine rejected: 400s.
type runError struct {
	status int
	err    error
}

func (e *runError) Error() string { return e.err.Error() }

// failed classifies a pipeline error, wherever it arose. A context
// error follows its cause — 504 when the request's deadline fired, 499
// when the client went away — and a shed is 429. A runError keeps its
// status; anything else is a 400.
func (s *Server) failed(err error, c *mapCall) outcome {
	var re *runError
	switch {
	case errors.Is(err, errOverloaded):
		return failedWith(http.StatusTooManyRequests, "overloaded: %d mappings running and %d queued; retry later",
			s.cfg.Concurrency, s.cfg.QueueDepth)
	case errors.Is(err, context.DeadlineExceeded):
		return failedWith(http.StatusGatewayTimeout, "mapping timed out after %v", c.timeout)
	case errors.Is(err, context.Canceled):
		return failedWith(statusClientClosedRequest, "request cancelled")
	case errors.As(err, &re):
		return failedWith(re.status, "%v", re.err)
	}
	return failedWith(http.StatusBadRequest, "%v", err)
}

// run maps c: FlowMap in lut mode, otherwise the gate-library engine
// with c's library, resolved here unless its batch already did.
func (s *Server) run(ctx context.Context, c *mapCall) (*MapResponse, error) {
	if c.mode == "lut" {
		return s.serveLUT(ctx, c)
	}
	if c.lib == nil {
		t0 := time.Now()
		lib, err := s.resolveLibrary(c)
		c.ph.d[phaseCompile] = time.Since(t0)
		if err != nil {
			return nil, err
		}
		c.lib = lib
	}
	return s.mapWith(ctx, c)
}

// mapWith runs the gate-library engine on c's subject graph.
func (s *Server) mapWith(ctx context.Context, c *mapCall) (*MapResponse, error) {
	ph, lib := c.ph, c.lib
	ph.library, ph.cacheHit = lib.cl.Library().Name, lib.hit
	opt := c.opt
	opt.Trace = ph.trace
	mapSubject := lib.cl.MapSubjectCompiled
	if c.mode == "tree" {
		mapSubject = lib.cl.MapSubjectTreeCompiled
	}
	t0 := time.Now()
	res, err := mapSubject(ctx, c.g, &opt)
	ph.d[phaseMap] = time.Since(t0)
	if err != nil {
		// Context errors pass through for classification; anything else
		// is an input the mapper rejected (e.g. a library without a
		// NAND2/INV basis), a 400.
		return nil, err
	}
	ph.core = res.Phases
	ph.memoHits, ph.memoMisses = res.MemoHits, res.MemoMisses
	resp := &MapResponse{
		Circuit:           c.nw.Name,
		Library:           lib.cl.Library().Name,
		Mode:              c.mode,
		Delay:             res.Delay,
		Area:              res.Area,
		Cells:             res.Cells,
		DuplicatedNodes:   res.DuplicatedNodes,
		SubjectNodes:      res.SubjectNodes,
		PatternsTried:     res.PatternsTried,
		MatchesEnumerated: res.MatchesEnumerated,
		MemoHits:          res.MemoHits,
		MemoMisses:        res.MemoMisses,
		CacheHit:          lib.hit,
		SubjectSHA:        res.SubjectSHA,
	}
	if lib.sg != nil {
		h := lib.sg.Hit
		resp.SGStoreHit = &h
		resp.SGArtifactSHA = lib.sg.ArtifactSHA
		ph.sgStoreHit = &h
	}
	return encodeNetlist(c, resp, func() error { return dagcover.Verify(c.nw, res.Netlist) }, res.Netlist.WriteBLIF)
}

// serveLUT maps c with FlowMap; no gate library is involved.
func (s *Server) serveLUT(ctx context.Context, c *mapCall) (*MapResponse, error) {
	k := c.req.K
	if k == 0 {
		k = 4
	}
	c.ph.library, c.ph.cacheHit = lutLibraryLabel(k), true
	t0 := time.Now()
	res, err := dagcover.MapLUTTraced(ctx, c.nw, k, c.ph.trace)
	c.ph.d[phaseMap] = time.Since(t0)
	if err != nil {
		return nil, err
	}
	resp := &MapResponse{
		Circuit: c.nw.Name,
		Library: lutLibraryLabel(k),
		Mode:    "lut",
		Depth:   res.Depth,
		LUTs:    res.LUTs,
		// LUT mapping needs no library compile; report a hit so cache
		// dashboards don't count these as misses.
		CacheHit: true,
	}
	return encodeNetlist(c, resp, func() error { return dagcover.VerifyNetworks(c.nw, res.Network) },
		func(w io.Writer) error { return dagcover.WriteBLIF(w, res.Network) })
}

// encodeNetlist runs the requested equivalence check (the verify
// phase) and renders the mapped netlist into resp.
func encodeNetlist(c *mapCall, resp *MapResponse, verify func() error, write func(io.Writer) error) (*MapResponse, error) {
	if c.req.Verify {
		t0 := time.Now()
		err := verify()
		c.ph.d[phaseVerify] = time.Since(t0)
		if err != nil {
			return nil, &runError{http.StatusInternalServerError, fmt.Errorf("mapped netlist failed verification: %v", err)}
		}
		resp.Verified = true
	}
	t0 := time.Now()
	defer func() { c.ph.d[phaseRespond] += time.Since(t0) }()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, &runError{http.StatusInternalServerError, err}
	}
	resp.Netlist = buf.String()
	return resp, nil
}

// resolveLibrary returns c's compiled library from the cache,
// compiling it on a miss. A supergate request compiles the expanded
// library; with an artifact store the expansion goes through it, and
// the artifact identity is remembered per cache key so every later
// request against the entry — an in-memory hit that never touches the
// store — still reports it.
func (s *Server) resolveLibrary(c *mapCall) (*compiled, error) {
	compile := func() (*dagcover.CompiledLibrary, error) {
		lib, err := c.load()
		if err != nil {
			return nil, err
		}
		if c.req.Supergates == nil {
			return dagcover.CompileLibrary(lib)
		}
		sg := c.req.Supergates.normalize()
		opt := dagcover.SupergateOptions{MaxInputs: sg.MaxInputs, MaxDepth: sg.MaxDepth, MaxGates: sg.MaxGates}
		if s.store == nil {
			return dagcover.CompileLibraryWithSupergates(lib, opt)
		}
		expanded, _, info, err := dagcover.ExpandSupergatesStored(s.store, lib, opt)
		if err != nil {
			return nil, err
		}
		s.sgInfo.Store(c.libKey, info)
		return dagcover.CompileLibrary(expanded)
	}
	cl, hit, err := s.cache.Get(c.libKey, compile)
	if err != nil {
		return nil, err
	}
	lib := &compiled{cl: cl, hit: hit}
	if v, ok := s.sgInfo.Load(c.libKey); ok {
		info := v.(dagcover.SupergateStoreInfo)
		lib.sg = &info
	}
	return lib, nil
}
