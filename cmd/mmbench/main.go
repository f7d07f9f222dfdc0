// Command mmbench regenerates every experiment table E1–E10 (each E1–E8
// doc comment in internal/experiments names the figure or claim of the
// paper it reproduces; E9 is the fleet scale
// sweep and E10 the capacity×population matrix, both run here at their
// reduced suite shapes — cmd/mmscale drives the full 500→10k axes). Use
// -scale to shrink run lengths during development, -parallel to spread
// each experiment's scenarios across workers, and -reps to replicate
// every scenario and report mean±std cells.
//
// Example:
//
//	mmbench                   # full-length suite, GOMAXPROCS workers
//	mmbench -scale 0.1        # 10x shorter scenarios
//	mmbench -only E6          # a single experiment
//	mmbench -reps 5 -seed 42  # 5 replications per cell
//	mmbench -parallel 1       # sequential (same tables as parallel)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "base seed")
		scale      = fs.Float64("scale", 1.0, "duration multiplier (e.g. 0.1 for quick runs)")
		only       = fs.String("only", "", "run a single experiment (E1..E10)")
		reps       = fs.Int("reps", 1, "replications per scenario (cells become mean±std)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "scenario workers per experiment")
		measurew   = fs.Int("measureworkers", 1, "per-scenario measurement workers (0 = GOMAXPROCS); results are byte-identical for any count")
		jsonOut    = fs.String("json", "", "write a machine-readable run summary (experiments, reps, worker counts, elapsed) to this file ('-' = stderr)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mw := *measurew
	if mw == 0 {
		mw = runtime.GOMAXPROCS(0)
	}
	opt := experiments.Options{Seed: *seed, TimeScale: *scale, Reps: *reps, Parallel: *parallel,
		MeasureWorkers: mw}
	if err := opt.Validate(); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			// Allocation profile at exit: runtime.GC first so the profile
			// reflects live + cumulative allocation sites accurately.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "mmbench: memprofile:", err)
			}
			f.Close()
		}()
	}

	type exp struct {
		id  string
		run func(experiments.Options) (*experiments.Table, error)
	}
	all := []exp{
		{"E1", experiments.E1MobileIPProcedures},
		{"E2", experiments.E2CellularIPHandoff},
		{"E3", experiments.E3LocationManagement},
		{"E4", experiments.E4InterDomain},
		{"E5", experiments.E5IntraDomain},
		{"E6", experiments.E6SchemeComparison},
		{"E7", experiments.E7ResourceSwitching},
		{"E8", experiments.E8PagingAndRSMCLoad},
		{"E9", func(o experiments.Options) (*experiments.Table, error) {
			return experiments.E9ScaleSweep(o, experiments.SuiteScaleSweep())
		}},
		{"E10", func(o experiments.Options) (*experiments.Table, error) {
			return experiments.E10CapacityMatrix(o, experiments.SuiteCapacityMatrix())
		}},
	}
	ran := 0
	start := time.Now()
	for _, e := range all {
		if *only != "" && e.id != *only {
			continue
		}
		tbl, err := e.run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(tbl)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "mmbench: %d experiment(s), %d rep(s), %d worker(s), %d measure worker(s) in %v\n",
		ran, *reps, *parallel, mw, elapsed.Round(time.Millisecond))
	if *jsonOut != "" {
		summary := runSummary{
			Experiments:    ran,
			Reps:           *reps,
			Parallel:       *parallel,
			MeasureWorkers: mw,
			TimeScale:      *scale,
			Seed:           *seed,
			ElapsedMS:      elapsed.Milliseconds(),
		}
		if err := writeSummary(*jsonOut, summary); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	return nil
}

// runSummary is the -json document: enough metadata to attribute a
// regenerated table set to its execution shape — in particular the
// scenario and measurement worker counts, which change throughput but
// never bytes.
type runSummary struct {
	Experiments    int     `json:"experiments"`
	Reps           int     `json:"reps"`
	Parallel       int     `json:"parallel"`
	MeasureWorkers int     `json:"measure_workers"`
	TimeScale      float64 `json:"time_scale"`
	Seed           int64   `json:"seed"`
	ElapsedMS      int64   `json:"elapsed_ms"`
}

// writeSummary emits the summary to a file, or to stderr for "-" so the
// table stream on stdout stays clean.
func writeSummary(path string, s runSummary) error {
	out := os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
