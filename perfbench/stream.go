package main

import (
	"bytes"
	"context"
	"fmt"

	"dagcover"
	"dagcover/internal/bench"
)

// streamLib is the library of the million-gate path: 44-3, the richest
// built-in library, with unit delay.
var streamLib = libSpec{"44-3", dagcover.Lib443, dagcover.UnitDelay}

// streamFamilies are the generated netlists of mult-stream and how
// many times each appears in one pass. The multiplier comes twice so
// that p50 over the pass's ops is a multiplier's CPU time and p90 is
// most of the way to the mesh's.
func streamFamilies(tiny bool) []struct {
	name   string
	copies int
} {
	if tiny {
		return []struct {
			name   string
			copies int
		}{{"mult4", 2}, {"alumesh2x2", 1}}
	}
	return []struct {
		name   string
		copies int
	}{{"mult48", 2}, {"alumesh16x16", 1}}
}

// streamWorkload streams generated BLIF held in memory straight into
// subject graphs, maps them with 44-3 and writes BLIF. Nothing is
// verified inside an op; the digests were recorded from outputs that
// passed a full Verify.
func streamWorkload(tiny bool) (*batch, error) {
	libs := compiledLibs{}
	b := &batch{libs: libs, specs: []libSpec{streamLib}}
	for _, f := range streamFamilies(tiny) {
		gen, ok := bench.StreamFamily(f.name)
		if !ok {
			return nil, fmt.Errorf("unknown family %s", f.name)
		}
		var buf bytes.Buffer
		if err := gen(&buf); err != nil {
			return nil, fmt.Errorf("generate %s: %w", f.name, err)
		}
		text := buf.Bytes()
		for i := 0; i < f.copies; i++ {
			b.ops = append(b.ops, &batchOp{
				key: opKey(f.name, streamLib.name, "dag"),
				run: func(tr *tracer, id, root int) (*opOut, error) {
					return streamOp(tr, id, root, text, libs[streamLib.name])
				},
				verify: func(out *opOut) error {
					nw, err := dagcover.ParseBLIF(bytes.NewReader(text))
					if err != nil {
						return err
					}
					return dagcover.Verify(nw, out.res.Netlist)
				},
			})
		}
	}
	return b, nil
}

func streamOp(tr *tracer, id, root int, text []byte, cl *dagcover.CompiledLibrary) (*opOut, error) {
	out := &opOut{dm: streamLib.dm, inBytes: len(text)}
	s := tr.begin(id, root, "blif.stream")
	a0 := tracedAllocs(tr)
	g, err := dagcover.StreamSubjectBLIF(bytes.NewReader(text))
	out.ingestAllocs = tracedAllocs(tr) - a0
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	s = tr.begin(id, root, "subject.digest")
	g.Digest()
	tr.end(s)
	s = tr.begin(id, root, "core.map")
	res, err := cl.MapSubjectCompiled(context.Background(), g, &dagcover.MapOptions{Delay: streamLib.dm, Parallelism: 1})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.phases(s, "core", res.Phases)
	out.res, out.nodes = res, res.SubjectNodes
	return out, encode(tr, id, root, out)
}
