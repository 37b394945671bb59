// Command techmap maps a BLIF circuit onto a gate library by
// delay-optimal DAG covering (default) or conventional tree covering.
//
// Usage:
//
//	techmap -lib lib2 -mode dag circuit.blif
//	techmap -lib my.genlib -mode tree -delay unit -o mapped.blif circuit.blif
//	techmap -lib 44-1 -supergates -delay unit -v circuit.blif
//
// The built-in libraries lib2, 44-1 and 44-3 may be named directly;
// any other -lib value is read as a genlib file. -supergates expands
// the library with composed supergates before mapping (bounds via
// -sg-inputs/-sg-depth/-sg-max). With -sg-store-dir the expanded
// library is served from a persistent content-addressed store — the
// same directory a mapd runs with -store-dir, so a CLI run and the
// fleet share one artifact per (library content, bounds) pair.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dagcover"
)

// exitTimeout is the exit status for a mapping stopped by -timeout,
// distinct from usage (2) and other errors (1) so scripts can retry
// with a longer budget.
const exitTimeout = 3

type config struct {
	path     string
	libName  string
	mode     string
	class    string
	delay    string
	output   string
	doVerify  bool
	recover   bool
	critPath  bool
	slack     bool
	verbose   bool
	parallel  int
	memo      bool
	tracePath string
	statsJSON string

	supergates bool
	sgInputs   int
	sgDepth    int
	sgMax      int
	sgStoreDir string
	sgStoreMB  int64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.libName, "lib", "lib2", "library: lib2, 44-1, 44-3, or a genlib file path")
	flag.StringVar(&cfg.mode, "mode", "dag", "mapping mode: dag or tree")
	flag.StringVar(&cfg.class, "class", "standard", "DAG match class: standard or extended")
	flag.StringVar(&cfg.delay, "delay", "intrinsic", "delay model: intrinsic or unit")
	flag.StringVar(&cfg.output, "o", "", "write the mapped netlist (.gate BLIF) to this file")
	flag.BoolVar(&cfg.doVerify, "verify", false, "verify the mapping against the input by simulation")
	flag.BoolVar(&cfg.recover, "arearecovery", false, "relax off-critical nodes to smaller gates")
	flag.BoolVar(&cfg.critPath, "critical", false, "print the critical path")
	flag.BoolVar(&cfg.slack, "slack", false, "print the worst timing paths and a slack histogram")
	flag.BoolVar(&cfg.verbose, "v", false, "print matcher statistics (patterns tried, matches enumerated)")
	flag.IntVar(&cfg.parallel, "parallel", 0, "labeling workers for DAG covering: 0 = all CPUs, 1 = serial (results are identical either way)")
	flag.BoolVar(&cfg.memo, "memo", true, "memoize match enumeration by canonical cone key (results are identical either way; -memo=false is the escape hatch)")
	flag.StringVar(&cfg.tracePath, "trace", "", "write a Chrome trace_event JSON of the mapping pipeline to this file (chrome://tracing, Perfetto)")
	flag.StringVar(&cfg.statsJSON, "stats-json", "", "write the mapping report as JSON to this file (- for stdout)")
	flag.BoolVar(&cfg.supergates, "supergates", false, "expand the library with composed supergates before mapping")
	flag.IntVar(&cfg.sgInputs, "sg-inputs", 0, "supergate max inputs (0 = default)")
	flag.IntVar(&cfg.sgDepth, "sg-depth", 0, "supergate max composition depth (0 = default)")
	flag.IntVar(&cfg.sgMax, "sg-max", 0, "supergate max emitted gates (0 = default)")
	flag.StringVar(&cfg.sgStoreDir, "sg-store-dir", "", "persistent artifact store for expanded supergate libraries, shareable with mapd's -store-dir (empty = regenerate every run)")
	flag.Int64Var(&cfg.sgStoreMB, "sg-store-max-mb", 1024, "artifact store disk budget in MiB")
	timeout := flag.Duration("timeout", 0, "abort mapping after this duration (0 = no limit)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: techmap [flags] circuit.blif")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg.path = flag.Arg(0)
	if cfg.parallel <= 0 {
		cfg.parallel = runtime.NumCPU()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, &cfg); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "techmap: mapping did not finish within the %v timeout (%v)\n", *timeout, err)
			os.Exit(exitTimeout)
		}
		fmt.Fprintln(os.Stderr, "techmap:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg *config) error {
	var tr *dagcover.Trace
	if cfg.tracePath != "" {
		tr = dagcover.NewTrace()
	}
	lib, err := loadLibrary(cfg.libName)
	if err != nil {
		return err
	}
	libDesc := lib.Name
	if cfg.supergates {
		opt := dagcover.SupergateOptions{
			MaxInputs:   cfg.sgInputs,
			MaxDepth:    cfg.sgDepth,
			MaxGates:    cfg.sgMax,
			Parallelism: cfg.parallel,
			Trace:       tr,
		}
		var expanded *dagcover.Library
		var stats dagcover.SupergateStats
		var info dagcover.SupergateStoreInfo
		if cfg.sgStoreDir != "" {
			st, err := dagcover.OpenArtifactStore(cfg.sgStoreDir, dagcover.ArtifactStoreOptions{MaxBytes: cfg.sgStoreMB << 20})
			if err != nil {
				return fmt.Errorf("opening supergate store: %v", err)
			}
			expanded, stats, info, err = dagcover.ExpandSupergatesStored(st, lib, opt)
			if err != nil {
				return fmt.Errorf("supergate generation: %v", err)
			}
		} else {
			expanded, stats, err = dagcover.ExpandSupergates(lib, opt)
			if err != nil {
				return fmt.Errorf("supergate generation: %v", err)
			}
		}
		if cfg.verbose {
			fmt.Printf("supergates: %d emitted from %d base gates (%d classes, %d dominated)\n",
				stats.Emitted, stats.BaseGates, stats.Classes, stats.Dominated)
			if cfg.sgStoreDir != "" {
				if info.Hit {
					fmt.Printf("supergate store: hit %s (saved %.0f ms of generation)\n", short(info.ArtifactSHA), info.GenMillis)
				} else {
					fmt.Printf("supergate store: miss, published %s (%.0f ms)\n", short(info.ArtifactSHA), info.GenMillis)
				}
			}
		}
		lib = expanded
		libDesc = lib.Name
	}
	f, err := os.Open(cfg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	nw, err := dagcover.ParseBLIF(f)
	if err != nil {
		return err
	}
	var dm dagcover.DelayModel
	switch cfg.delay {
	case "intrinsic":
		dm = dagcover.IntrinsicDelay
	case "unit":
		dm = dagcover.UnitDelay
	default:
		return fmt.Errorf("unknown delay model %q", cfg.delay)
	}
	mapper, err := dagcover.NewMapper(lib)
	if err != nil {
		return err
	}
	opt := &dagcover.MapOptions{Delay: dm, AreaRecovery: cfg.recover, Parallelism: cfg.parallel, Ctx: ctx, Trace: tr}
	if !cfg.memo {
		opt.Memo = dagcover.MemoOff
	}
	switch cfg.class {
	case "standard":
		opt.Class = dagcover.MatchStandard
	case "extended":
		opt.Class = dagcover.MatchExtended
	default:
		return fmt.Errorf("unknown match class %q", cfg.class)
	}
	var res *dagcover.MapResult
	switch cfg.mode {
	case "dag":
		res, err = mapper.MapDAG(nw, opt)
	case "tree":
		res, err = mapper.MapTree(nw, opt)
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}
	if err != nil {
		return err
	}
	report := dagcover.NewMapReport(nw.Name, cfg.mode, cfg.delay, lib, res)
	report.Library = libDesc
	if cfg.doVerify {
		span, start := tr.Start("verify"), time.Now()
		err := dagcover.Verify(nw, res.Netlist)
		span.End()
		if err != nil {
			return fmt.Errorf("verification FAILED: %v", err)
		}
		report.SetVerifyTime(time.Since(start))
		report.SetVerified(true)
	}
	report.WriteText(os.Stdout, cfg.verbose)
	if cfg.statsJSON != "" {
		if err := writeStatsJSON(cfg.statsJSON, report); err != nil {
			return err
		}
	}
	if tr != nil {
		if err := tr.WriteFile(cfg.tracePath); err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		fmt.Printf("  trace:         %s\n", cfg.tracePath)
	}
	if cfg.slack {
		paths, err := dagcover.WorstTimingPaths(res.Netlist, dm, 3)
		if err != nil {
			return err
		}
		fmt.Println("  worst paths:")
		for _, p := range paths {
			fmt.Printf("    %s (slack %.3f): %d cells\n", p.Port, p.Slack, len(p.Cells))
		}
	}
	if cfg.critPath {
		cells, err := res.Netlist.CriticalPath(dm, nil)
		if err != nil {
			return err
		}
		fmt.Println("  critical path:")
		for _, c := range cells {
			fmt.Printf("    %-10s -> %s\n", c.Gate.Name, c.Output)
		}
	}
	if cfg.output != "" {
		out, err := os.Create(cfg.output)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := res.Netlist.WriteBLIF(out); err != nil {
			return err
		}
		fmt.Printf("  wrote:         %s\n", cfg.output)
	}
	return nil
}

// short abbreviates a hex digest for log lines.
func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// writeStatsJSON emits the report ("-" means stdout).
func writeStatsJSON(path string, report *dagcover.MapReport) error {
	if path == "-" {
		return report.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("  stats:         %s\n", path)
	return nil
}

func loadLibrary(name string) (*dagcover.Library, error) {
	switch name {
	case "lib2":
		return dagcover.Lib2(), nil
	case "44-1":
		return dagcover.Lib441(), nil
	case "44-3":
		return dagcover.Lib443(), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("library %q is not built in and could not be opened: %v", name, err)
	}
	defer f.Close()
	return dagcover.LoadLibrary(name, f)
}
