// Command mmbench regenerates every experiment table: E1–E8 (each doc
// comment in internal/experiments names the figure or claim of the
// paper it reproduces) and the matrix experiments — the E9 fleet scale
// sweep, the E10 capacity×population matrix, the E11 resilience
// matrix, the E13 closed-loop matrix and the E14 degradation matrix —
// at the reduced suite shapes the experiments registry lists
// (cmd/mmscale drives their full axes). Use -scale to shrink run
// lengths during development, -parallel to spread each experiment's
// scenarios across workers, and -reps to replicate every scenario and
// report mean±std cells.
//
// Example:
//
//	mmbench                   # full-length suite, GOMAXPROCS workers
//	mmbench -scale 0.1        # 10x shorter scenarios
//	mmbench -only E6          # a single experiment
//	mmbench -only E13         # one matrix experiment at its suite shape
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
	"strings"
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
	all := suite()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.id
	}
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	options := experiments.OptionFlags(fs)
	var (
		only       = fs.String("only", "", "run a single experiment ("+strings.Join(ids, ", ")+")")
		jsonOut    = fs.String("json", "", "write a machine-readable run summary (experiments, reps, worker counts, elapsed) to this file ('-' = stderr)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := options()
	if err != nil {
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
		ran, opt.Reps, opt.Parallel, opt.MeasureWorkers, elapsed.Round(time.Millisecond))
	if *jsonOut != "" {
		summary := runSummary{
			Experiments:    ran,
			Reps:           opt.Reps,
			Parallel:       opt.Parallel,
			MeasureWorkers: opt.MeasureWorkers,
			TimeScale:      opt.TimeScale,
			Seed:           opt.Seed,
			ElapsedMS:      elapsed.Milliseconds(),
		}
		if err := writeSummary(*jsonOut, summary); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	return nil
}

type experiment struct {
	id  string
	run func(experiments.Options) (*experiments.Table, error)
}

// suite lists every experiment mmbench can run, in table order: E1–E8,
// then each registered matrix at its suite shape.
func suite() []experiment {
	all := []experiment{
		{"E1", experiments.E1MobileIPProcedures},
		{"E2", experiments.E2CellularIPHandoff},
		{"E3", experiments.E3LocationManagement},
		{"E4", experiments.E4InterDomain},
		{"E5", experiments.E5IntraDomain},
		{"E6", experiments.E6SchemeComparison},
		{"E7", experiments.E7ResourceSwitching},
		{"E8", experiments.E8PagingAndRSMCLoad},
	}
	for _, e := range experiments.Matrices() {
		all = append(all, experiment{e.ID, func(o experiments.Options) (*experiments.Table, error) {
			return experiments.RunMatrix(o, e.Suite())
		}})
	}
	return all
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
