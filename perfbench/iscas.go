package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"dagcover"
	"dagcover/internal/bench"
)

// libSpec pairs a built-in library with the delay model of its table
// in the paper: intrinsic pin delays for lib2 (Table 1), unit delay
// for 44-1 and 44-3 (Tables 2-3), as cmd/benchmap does.
type libSpec struct {
	name string
	lib  func() *dagcover.Library
	dm   dagcover.DelayModel
}

var paperLibs = []libSpec{
	{"lib2", dagcover.Lib2, dagcover.IntrinsicDelay},
	{"44-1", dagcover.Lib441, dagcover.UnitDelay},
	{"44-3", dagcover.Lib443, dagcover.UnitDelay},
}

// iscasModes are the three mappings of every (circuit, library) pair:
// DAG covering, the tree-covering baseline, and choices with area
// recovery (the mapping step of cmd/flow's default path).
var iscasModes = []string{"dag", "tree", "choices"}

// blifInput is one circuit rendered to BLIF text ahead of the run. err
// records a circuit the BLIF writer cannot render; every op on it fails
// with that error.
type blifInput struct {
	name string
	text []byte
	net  *dagcover.Network
	err  error
}

func renderInputs(circuits []bench.Circuit) []*blifInput {
	var inputs []*blifInput
	for _, c := range circuits {
		in := &blifInput{name: c.Name, net: c.Network}
		var buf bytes.Buffer
		if err := dagcover.WriteBLIF(&buf, c.Network); err != nil {
			in.err = err
		}
		in.text = buf.Bytes()
		inputs = append(inputs, in)
	}
	return inputs
}

// iscasCircuits is the ISCAS-85 suite; tiny keeps two circuits that
// map and one the BLIF writer rejects.
func iscasCircuits(tiny bool) []bench.Circuit {
	all := bench.FullSuite()
	if !tiny {
		return all
	}
	var out []bench.Circuit
	for _, c := range all {
		switch c.Name {
		case "C432", "C880", "C1355":
			out = append(out, c)
		}
	}
	return out
}

// compiledLibs holds a compilation of each library a workload uses.
type compiledLibs map[string]*dagcover.CompiledLibrary

// compile fills c with a compilation of each spec's library and
// returns each one's compile CPU time.
func (c compiledLibs) compile(specs []libSpec) (map[string]time.Duration, error) {
	times := map[string]time.Duration{}
	for _, l := range specs {
		c0 := cpuNow()
		cl, err := dagcover.CompileLibrary(l.lib())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", l.name, err)
		}
		times[l.name] = cpuNow() - c0
		c[l.name] = cl
	}
	return times, nil
}

func (c compiledLibs) patterns() int {
	n := 0
	for _, cl := range c {
		n += cl.NumPatterns()
	}
	return n
}

// iscasWorkload is the paper's experiment: every circuit x library x
// mode, each op ingesting BLIF text, building the subject graph,
// mapping, verifying by simulation and writing BLIF.
func iscasWorkload(tiny bool) *batch {
	libs := compiledLibs{}
	b := &batch{libs: libs, specs: paperLibs, ratios: tableRatios}
	for _, in := range renderInputs(iscasCircuits(tiny)) {
		for _, l := range paperLibs {
			for _, mode := range iscasModes {
				b.ops = append(b.ops, &batchOp{
					key: opKey(in.name, l.name, mode),
					run: func(tr *tracer, id, root int) (*opOut, error) {
						return iscasOp(tr, id, root, in, libs[l.name], l, mode)
					},
				})
			}
		}
	}
	return b
}

func opKey(input, lib, mode string) string { return input + "|" + lib + "|" + mode }

func iscasOp(tr *tracer, id, root int, in *blifInput, cl *dagcover.CompiledLibrary, l libSpec, mode string) (*opOut, error) {
	if in.err != nil {
		return nil, in.err
	}
	out := &opOut{dm: l.dm, inBytes: len(in.text)}
	s := tr.begin(id, root, "blif.read")
	a0 := tracedAllocs(tr)
	nw, err := dagcover.ParseBLIF(bytes.NewReader(in.text))
	out.ingestAllocs = tracedAllocs(tr) - a0
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}

	opt := &dagcover.MapOptions{Delay: l.dm, Parallelism: 1}
	var res *dagcover.MapResult
	engine := "core"
	if mode == "choices" {
		opt.AreaRecovery = true
		s = tr.begin(id, root, "choices.map")
		m := cl.Acquire()
		res, err = m.MapDAGWithChoices(nw, opt)
		cl.Release(m)
		tr.end(s)
	} else {
		s = tr.begin(id, root, "subject.build")
		g, berr := dagcover.BuildSubject(nw)
		tr.end(s)
		if berr != nil {
			return nil, fmt.Errorf("subject: %w", berr)
		}
		s = tr.begin(id, root, "subject.digest")
		g.Digest()
		tr.end(s)
		if mode == "dag" {
			s = tr.begin(id, root, "core.map")
			res, err = cl.MapSubjectCompiled(context.Background(), g, opt)
		} else {
			engine = "treemap"
			s = tr.begin(id, root, "treemap.map")
			res, err = cl.MapSubjectTreeCompiled(context.Background(), g, opt)
		}
		tr.end(s)
	}
	if err != nil {
		return nil, err
	}
	tr.phases(s, engine, res.Phases)
	out.res, out.nodes = res, res.SubjectNodes

	s = tr.begin(id, root, "verify")
	verr := dagcover.Verify(nw, res.Netlist)
	tr.end(s)
	if verr != nil {
		out.wrong = fmt.Errorf("verify: %w", verr)
	}
	out.verified = verr == nil
	return out, encode(tr, id, root, out)
}

// encode writes the mapped netlist as BLIF and takes its sha256.
func encode(tr *tracer, id, root int, out *opOut) error {
	s := tr.begin(id, root, "blif.write")
	var buf bytes.Buffer
	err := out.res.Netlist.WriteBLIF(&buf)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("write BLIF: %w", err)
	}
	out.outBytes = buf.Len()
	s = tr.begin(id, root, "check.sha256")
	out.sha = sha256Hex(buf.Bytes())
	tr.end(s)
	return nil
}

// tracedAllocs reads the allocation counter only when tracing.
func tracedAllocs(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	return allocCount()
}

// tableRatios is the paper's table columns: the geometric mean over
// (circuit, library) pairs of DAG over tree delay and area.
func tableRatios(ref map[string]*opOut) (delay, area float64) {
	var ds, as []float64
	for key, dag := range ref {
		in, lib, mode := splitKey(key)
		if mode != "dag" {
			continue
		}
		tree, ok := ref[opKey(in, lib, "tree")]
		if !ok || tree.res.Delay <= 0 || tree.res.Area <= 0 {
			continue
		}
		ds = append(ds, dag.res.Delay/tree.res.Delay)
		as = append(as, dag.res.Area/tree.res.Area)
	}
	return geomean(ds), geomean(as)
}

func splitKey(key string) (input, lib, mode string) {
	p := strings.SplitN(key, "|", 3)
	return p[0], p[1], p[2]
}
