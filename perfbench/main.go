// Command perfbench is the repository's benchmark: one seeded workload
// per run, end-to-end metrics with tracing off, per-layer metrics and
// a self-time table with tracing on, and every output checked.
//
// Usage, from the root of a checkout (run.sh builds the binary under
// .bench_build/ and passes its arguments on):
//
//	bash perfbench/run.sh --workload iscas-verify --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1   # the three in turn
//
// Workloads:
//
//	iscas-verify  the paper's experiment: ISCAS-85 x {lib2, 44-1, 44-3}
//	              x {dag, tree, choices}; each op ingests BLIF text,
//	              builds the subject graph, maps, verifies and writes BLIF
//	mult-stream   generated million-gate-family netlists streamed from
//	              memory into subject graphs, mapped with 44-3, written
//	serve-mixed   an in-process mapping service under open-loop Poisson
//	              traffic at a light and a heavy rate: cache hits,
//	              re-serialized repeats and fresh netlists
//
// Ops and requests run one at a time on one P. The end-to-end times
// are CPU time scaled to a reference machine speed by a calibration
// kernel timed beside the work (cpu.go, calib.go), because the speed of
// a shared host's CPU changes between runs by more than any bound a
// regression check could carry; serve-mixed's wall-clock latencies
// are per-layer figures of the traced run.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics with their units. Before it, every
// metric is printed by name with its unit; progress and tables go to
// standard error. A run that finds a wrong output still prints its
// result, with correct false, and exits 1.
//
// -record recomputes every workload's outputs once, verifies each in
// full and writes their sha256 digests to digests.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

var workloads = []string{"iscas-verify", "mult-stream", "serve-mixed"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	outDir   string
	heavyRPS float64
}

func (c *config) tracePath() string {
	return filepath.Join(c.outDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := &config{}
	var trace int
	var record string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: iscas-verify, mult-stream, serve-mixed, or all three")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: op order, arrivals and request mix")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time; batch workloads round it to whole passes")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench-out", "directory for the run report and Chrome trace")
	flag.Float64Var(&cfg.heavyRPS, "heavy-rps", defaultHeavyRPS, "serve-mixed heavy offered rate; only for measuring capacity, by setting it far above what the service can serve")
	flag.StringVar(&record, "record", "", "recompute, verify and write every workload's output digests to this file, then exit")
	flag.Parse()
	cfg.traced = trace == 1

	if record != "" {
		if err := recordDigests(record); err != nil {
			die(err)
		}
		return
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	// --workload all runs the three workloads one after another in this
	// process; its result line sums the counts and prefixes each metric
	// with its workload.
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	total := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		c := *cfg
		c.workload = name
		start := time.Now()
		o, err := runWorkload(&c)
		if err != nil {
			die(err)
		}
		if len(names) > 1 {
			fmt.Printf("== %s\n", name)
		}
		res, err := report(&c, o, os.Stdout, time.Since(start))
		if err != nil {
			die(err)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload runs cfg's workload and returns its outcome.
func runWorkload(cfg *config) (*outcome, error) {
	// One P: ops and requests run one at a time, no idle thread spins
	// looking for work, and the process's CPU time is the work done.
	runtime.GOMAXPROCS(1)
	switch cfg.workload {
	case "iscas-verify":
		return runBatch(iscasWorkload(cfg.tiny), cfg)
	case "mult-stream":
		b, err := streamWorkload(cfg.tiny)
		if err != nil {
			return nil, err
		}
		return runBatch(b, cfg)
	case "serve-mixed":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// report prints every metric of the run with its unit, the failed
// ops and any wrong output, writes the run report file and returns the
// result line.
func report(cfg *config, o *outcome, w io.Writer, wall time.Duration) (*result, error) {
	res := &result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalogue(cfg.traced) {
		v := o.values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if !cfg.traced {
		// The per-run quality and failure figures ride along untraced.
		for _, name := range []string{"fail_frac", "delay_ratio", "area_ratio"} {
			fmt.Fprintf(w, "info   %-28s %14.6g ratio\n", name, o.values[name])
		}
	}
	for _, key := range sortedKeys(o.failures) {
		fmt.Fprintf(w, "failed %s: %s\n", key, o.failures[key])
	}
	for _, msg := range o.wrong {
		fmt.Fprintf(w, "WRONG  %s\n", msg)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, writeReport(cfg, o, res, wall)
}

// writeReport saves the run's provenance, metrics and failures as JSON
// under the output directory.
func writeReport(cfg *config, o *outcome, res *result, wall time.Duration) error {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	doc := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"tiny":       cfg.tiny,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"wall_s":     wall.Seconds(),
		"result":     res,
		"values":     o.values,
		"failures":   o.failures,
		"digests":    o.digests,
		"wrong":      o.wrong,
		"detail":     o.report,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("report-%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.traced))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
