package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"dagcover"
)

// recordDigests maps every distinct output of every workload once,
// verifies it in full and writes the digests of those that pass. Ops
// that fail are written as known failures with their error text.
func recordDigests(path string) error {
	rec := newRecorder()
	b, err := streamWorkload(false)
	if err != nil {
		return err
	}
	tiny, err := streamWorkload(true)
	if err != nil {
		return err
	}
	for _, w := range []*batch{iscasWorkload(false), b, tiny} {
		if err := recordBatch(rec, w); err != nil {
			return err
		}
	}
	if err := recordPool(rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d digests, %d known failures\n", len(rec.file.Outputs), len(rec.file.KnownFailures))
	return rec.write(path)
}

// recordBatch runs every op of a batch workload once against fresh
// compilations and records the outputs that verify and time correctly.
func recordBatch(rec *recorder, w *batch) error {
	if _, err := w.libs.compile(w.specs); err != nil {
		return err
	}
	for _, op := range w.ops {
		out, err := op.run(nil, 0, -1)
		if err != nil {
			rec.failure(op.key, err)
			continue
		}
		if !out.verified {
			if op.verify == nil {
				return fmt.Errorf("%s: output not verified: %v", op.key, out.wrong)
			}
			if err := op.verify(out); err != nil {
				return fmt.Errorf("%s: verify: %w", op.key, err)
			}
		}
		if err := checkTiming(out.res, out.dm); err != nil {
			return fmt.Errorf("%s: %w", op.key, err)
		}
		rec.output(op.key, out.sha)
	}
	return nil
}

// recordPool maps serve-mixed's fresh netlists the way the service
// does: subject graph, DAG covering on 44-3 with unit delay, one
// labeling worker. Each output must pass Verify and static timing
// before its digest is kept.
func recordPool(rec *recorder) error {
	cl, err := dagcover.CompileLibrary(dagcover.Lib443())
	if err != nil {
		return err
	}
	for i := 0; i < poolSize; i++ {
		in, err := newServeInput(poolKey(i), poolNetlist(i))
		if err != nil {
			return err
		}
		nw, err := dagcover.ParseBLIF(bytes.NewReader(in.text))
		if err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		g, err := dagcover.BuildSubject(nw)
		if err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		res, err := cl.MapSubjectCompiled(context.Background(), g, &dagcover.MapOptions{Delay: dagcover.UnitDelay, Parallelism: 1})
		if err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		if err := dagcover.Verify(nw, res.Netlist); err != nil {
			return fmt.Errorf("%s: verify: %w", in.key, err)
		}
		if err := checkTiming(res, dagcover.UnitDelay); err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		var buf bytes.Buffer
		if err := res.Netlist.WriteBLIF(&buf); err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		rec.output(in.key, sha256Hex(buf.Bytes()))
	}
	return nil
}
