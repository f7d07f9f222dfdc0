// Command mmscale runs the population-scale experiments: the E9 scale
// sweep (heterogeneous fleet workloads swept across mobile-node
// populations and mobility-management schemes, reporting a per-profile
// QoE table) and, with -dimension, the E10 capacity×population matrix
// (every population run on the fixed seed topology and again on a
// demand-dimensioned arena, reporting reason-coded admission outcomes
// and per-tier occupancy alongside QoE). With -faults it runs the E11
// resilience matrix instead: deterministic fault plans (station outages,
// backbone degradation, regional radio fade) injected into every scheme,
// reporting handoff loss, session survival, signalling load and
// time-to-90%-re-registered recovery. With -closedloop it runs the E13
// closed-loop matrix: a hotspot crowd swept open-loop and again with
// the QoE feedback loop armed (elastic admission budget shifting plus
// survival-dip pre-paging), against each fault profile. With -degrade it
// runs the E14 degradation matrix: a three-class crowd swept over the
// cliff (no policy) and again with graceful degradation armed (the
// class-priority admission ladder, video rate adaptation, and the
// registration-storm breaker), against each fault profile.
//
// Scale runs are bounded-memory by construction: each scenario owns a
// private packet arena and per-profile metrics are streaming aggregates,
// so peak heap tracks the population and topology, never the packet
// count.
//
// Example:
//
//	mmscale                                     # E9: 500 → 10k MNs, every scheme
//	mmscale -mns 5000 -schemes multitier-rsmc   # one cell at scale
//	mmscale -mns 500,2000 -reps 3 -seed 42      # error bars
//	mmscale -fleet pedestrian-voice=80,vehicular-video=20
//	mmscale -signalling                         # per-profile location updates + pages
//	mmscale -dimension                          # E10: fixed vs dimensioned matrix
//	mmscale -dimension -density dense -headroom 1.5
//	mmscale -measureworkers 0                   # parallel measurement phase (0 = GOMAXPROCS)
//	mmscale -dimension -rootocc                 # per-root occupancy column (load balance)
//	mmscale -faults                             # E11: resilience matrix, all fault profiles
//	mmscale -faults -faultprofiles root-outage  # one fault profile
//	mmscale -faults -trace -sample 250ms -traceout traces/  # one JSONL trace per scenario
//	mmscale -closedloop                         # E13: open vs closed QoE feedback loop
//	mmscale -closedloop -trace -traceout traces/  # with alert traces (mmtrace -alerts)
//	mmscale -degrade                            # E14: cliff vs graceful degradation
//	mmscale -degrade -faultprofiles storm       # storm rows only
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mmscale:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	def := experiments.DefaultScaleSweep()
	fs := flag.NewFlagSet("mmscale", flag.ContinueOnError)
	options := experiments.OptionFlags(fs)
	var (
		mns        = fs.String("mns", joinInts(def.Populations), "comma-separated population axis")
		schemes    = fs.String("schemes", joinSchemes(def.Schemes), "comma-separated schemes to sweep")
		duration   = fs.Duration("duration", def.Duration, "virtual span of each scenario")
		fleetArg   = fs.String("fleet", def.Spec.String(), "population mix as name=share,... (built-in profiles)")
		signalling = fs.Bool("signalling", false, "add per-profile location-update and paging columns to the E9 sweep (E10 always includes them)")
		dimension  = fs.Bool("dimension", false, "run the E10 capacity matrix: fixed vs dimensioned topology")
		faultsRun  = fs.Bool("faults", false, "run the E11 resilience matrix: deterministic fault injection x scheme")
		closedloop = fs.Bool("closedloop", false, "run the E13 closed-loop matrix: open vs closed QoE feedback loop x fault profile")
		degradeRun = fs.Bool("degrade", false, "run the E14 degradation matrix: cliff vs graceful degradation x fault profile")
		faultprofs = fs.String("faultprofiles", "", "with -faults or -degrade, comma-separated fault profiles to inject (default: the mode's standard profiles)")
		rootocc    = fs.Bool("rootocc", false, "with -dimension, add the per-root occupancy load-balance column")
		density    = fs.String("density", string(capacity.DensityUrban), "dimensioning density preset (sparse|urban|dense)")
		headroom   = fs.Float64("headroom", capacity.DefaultHeadroom, "dimensioning capacity headroom factor (>= 1)")
		memstats   = fs.Bool("memstats", false, "print heap statistics after the sweep")
		trace      = fs.Bool("trace", false, "record a deterministic event trace of every scenario (replication 0)")
		sample     = fs.Duration("sample", 0, "with -trace, time-series sampling cadence (0 = events only)")
		traceout   = fs.String("traceout", "traces", "with -trace, directory receiving one JSONL trace per scenario")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sw := experiments.ScaleSweep{Axis: experiments.Axis{Duration: *duration}, PerProfileSignalling: *signalling}
	var err error
	if sw.Populations, err = parseInts(*mns); err != nil {
		return fmt.Errorf("-mns: %w", err)
	}
	if sw.Schemes, err = parseSchemes(*schemes); err != nil {
		return fmt.Errorf("-schemes: %w", err)
	}
	if sw.Spec, err = fleet.ParseSpec(*fleetArg); err != nil {
		return fmt.Errorf("-fleet: %w", err)
	}
	opt, err := options()
	if err != nil {
		return err
	}
	if *trace {
		opt.Obs = &obs.Config{SampleInterval: *sample, PacketSampleEvery: 64}
		opt.TraceDir = *traceout
	}

	modes := 0
	for _, on := range []bool{*faultsRun, *dimension, *closedloop, *degradeRun} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-faults, -dimension, -closedloop and -degrade are mutually exclusive")
	}
	if *faultprofs != "" && !*faultsRun && !*degradeRun {
		return fmt.Errorf("-faultprofiles requires -faults or -degrade")
	}

	profiles, err := parseFaultProfiles(*faultprofs)
	if err != nil {
		return fmt.Errorf("-faultprofiles: %w", err)
	}

	// The fault and crowd matrices carry their own default axes (E11 a
	// smaller population axis, E13/E14 their own crowds on multi-tier
	// only); explicitly set axis flags still override them. ax and
	// nSchemes are the axis that actually runs.
	var m experiments.Matrix
	ax, nSchemes := &sw.Axis, len(sw.Schemes)
	switch {
	case *faultsRun:
		r := experiments.DefaultResilienceMatrix()
		r.Schemes, r.Profiles = sw.Schemes, profiles
		overrideAxis(fs, &r.Axis, sw.Axis, nil, 0)
		m, ax = &r, &r.Axis
	case *closedloop, *degradeRun:
		c := experiments.DefaultClosedLoopMatrix()
		if *degradeRun {
			c = experiments.DefaultDegradationMatrix()
		}
		c.Profiles = profiles
		overrideAxis(fs, &c.Axis, sw.Axis, &c.SampleInterval, *sample)
		m, ax, nSchemes = &c, &c.Axis, 1
	case *dimension:
		cm := experiments.CapacityMatrix{
			Axis:    sw.Axis,
			Schemes: sw.Schemes,
			Planner: capacity.PlannerConfig{
				Density:  capacity.Density(*density),
				Headroom: *headroom,
			},
			PerRootOccupancy: *rootocc,
		}
		m = &cm
	default:
		m = &sw
	}
	start := time.Now()
	tbl, err := experiments.RunMatrix(opt, m)
	if err != nil {
		return err
	}
	fmt.Println(tbl)
	fmt.Fprintf(os.Stderr, "mmscale: %d population(s) x %d scheme(s), %d rep(s), %d worker(s), %d measure worker(s) in %v\n",
		len(ax.Populations), nSchemes, opt.Reps, opt.Parallel, opt.MeasureWorkers, time.Since(start).Round(time.Millisecond))
	if *memstats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Fprintf(os.Stderr, "mmscale: heap-alloc=%dMiB heap-sys=%dMiB total-alloc=%dMiB gc=%d\n",
			m.HeapAlloc>>20, m.HeapSys>>20, m.TotalAlloc>>20, m.NumGC)
	}
	return nil
}

// overrideAxis copies the axis flags set explicitly on the command line
// (-mns, -duration, -fleet, and -sample where the matrix has a cadence)
// from the flag-built axis onto a matrix's own defaults.
func overrideAxis(fs *flag.FlagSet, dst *experiments.Axis, flags experiments.Axis, dstSample *time.Duration, sample time.Duration) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "mns":
			dst.Populations = flags.Populations
		case "duration":
			dst.Duration = flags.Duration
		case "fleet":
			dst.Spec = flags.Spec
		case "sample":
			if dstSample != nil {
				*dstSample = sample
			}
		}
	})
}

func joinInts(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// parseInts parses the population axis, enforcing the same rules
// experiments.Axis.Validate applies — strictly ascending positive
// counts — so a bad -mns fails here with a flag-shaped error instead of
// surfacing later as a sweep error (or, before validation existed,
// silently doubling runs and rendering misordered tables).
func parseInts(s string) ([]int, error) {
	var out []int
	prev := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad population %q", part)
		}
		switch {
		case v == prev:
			return nil, fmt.Errorf("duplicate population %d", v)
		case v < prev:
			return nil, fmt.Errorf("populations must be ascending (%d after %d)", v, prev)
		}
		prev = v
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no populations")
	}
	return out, nil
}

// parseFaultProfiles resolves a comma-separated profile-name list against
// the standard fault profiles; empty means all of them.
func parseFaultProfiles(s string) ([]faults.NamedPlan, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []faults.NamedPlan
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		np, err := faults.ProfileByName(part)
		if err != nil {
			return nil, err
		}
		out = append(out, np)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fault profiles")
	}
	return out, nil
}

func joinSchemes(schemes []core.Scheme) string {
	parts := make([]string, len(schemes))
	for i, s := range schemes {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",")
}

func parseSchemes(s string) ([]core.Scheme, error) {
	known := make(map[core.Scheme]bool)
	for _, sc := range core.Schemes() {
		known[sc] = true
	}
	var out []core.Scheme
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sc := core.Scheme(part)
		if !known[sc] {
			return nil, fmt.Errorf("unknown scheme %q", part)
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no schemes")
	}
	return out, nil
}
