// Command perfbench is the repository benchmark: it drives core.Run from
// outside on three workloads and reports host cost, set-up time and the
// modelled outputs per op (--trace 0), or a profiled per-layer ledger
// (--trace 1). See README.md for the workloads, metrics and how to read
// the ledger.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload scale10k --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/topology"
)

// roleEnv selects a child role. The parent process runs each measurement in a
// child process of its own binary so that peak memory and set-up time
// belong to a process that runs only that workload.
const roleEnv = "PERFBENCH_ROLE"

const (
	// setupProbes is how many fresh processes time set-up per run.
	setupProbes = 7
	// setupRounds is how many times the traced run repeats each timed
	// set-up call.
	setupRounds = 5
	// minOps keeps a median meaningful when one op outlasts the budget.
	minOps = 3
	// memProfileRate samples one allocation per this many bytes in the
	// traced run, finer than the runtime default of 512 KiB.
	memProfileRate = 64 << 10
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	small    bool
}

func (o options) childArgs(seconds float64) []string {
	return []string{
		"--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--small=" + strconv.FormatBool(o.small),
	}
}

func parseOptions(args []string, stderr io.Writer) (options, workload, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: scale10k, schemes or storm")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 35, "seconds of ops to measure")
	fs.IntVar(&o.trace, "trace", 0, "0 reports end-to-end metrics, 1 the profiled per-layer ledger")
	fs.BoolVar(&o.small, "small", false, "scaled-down inputs, for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return o, workload{}, err
	}
	if fs.NArg() > 0 {
		return o, workload{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 0 || o.trace < 0 || o.trace > 1 {
		return o, workload{}, fmt.Errorf("bad --seconds %v or --trace %d", o.seconds, o.trace)
	}
	w, err := workloadByName(o.workload)
	return o, w, err
}

func run(args []string, stdout, stderr io.Writer) int {
	o, w, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	role := os.Getenv(roleEnv)
	switch role {
	case "":
		err = drive(o, w, stdout, stderr)
	case "setup":
		err = setupChild(o, w, stdout)
	case "measure":
		err = measureChild(o, w, stdout)
	case "traced":
		err = tracedChild(o, w, stdout)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", role, err)
		return 1
	}
	return 0
}

// childReport is what a measure or traced child prints for the parent process.
type childReport struct {
	Ops    []opResult         `json:"ops"`
	Ledger map[string]float64 `json:"ledger,omitempty"`
}

// loop runs ops back to back until seconds have passed and at least
// minOps have run.
func loop(seconds float64, op func()) {
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < seconds; n++ {
		op()
	}
}

// runPass runs a list once, stopping at the first error.
func runPass(cfgs []core.Config) error {
	for i, cfg := range cfgs {
		if _, err := core.Run(cfg); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, cfg.Scheme, err)
		}
	}
	return nil
}

// setupChild is one set-up probe: generate the inputs, run the
// build-only pass, and say so. The parent times it from process start.
func setupChild(o options, w workload, stdout io.Writer) error {
	cfgs, err := loadConfigs(w, o.seed, o.small)
	if err != nil {
		return err
	}
	if err := runPass(withDuration(cfgs, time.Millisecond)); err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, "ready")
	return err
}

func measureChild(o options, w workload, stdout io.Writer) error {
	cfgs, err := loadConfigs(w, o.seed, o.small)
	if err != nil {
		return err
	}
	var rep childReport
	loop(o.seconds, func() {
		op, _ := runOp(w, cfgs)
		rep.Ops = append(rep.Ops, op)
	})
	return json.NewEncoder(stdout).Encode(rep)
}

// tracedChild runs the ops with Obs sampling armed under a CPU profile
// and a fine-grained allocation profile, then times the set-up calls
// with the profiles stopped.
func tracedChild(o options, w workload, stdout io.Writer) error {
	runtime.MemProfileRate = memProfileRate
	cfgs, err := loadConfigs(w, o.seed, o.small)
	if err != nil {
		return err
	}
	cfgs = withObs(cfgs)
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return err
	}
	var rep childReport
	var last []*core.Result
	loop(o.seconds, func() {
		op, results := runOp(w, cfgs)
		for name, v := range probeValues(results) {
			op.Values[name] = v
		}
		rep.Ops = append(rep.Ops, op)
		last = results
	})
	pprof.StopCPUProfile()
	runtime.GC() // the allocation profile publishes as of the last GC
	var mem bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&mem, 0); err != nil {
		return err
	}

	rep.Ledger = map[string]float64{}
	for _, p := range []struct {
		prof    []byte
		typ     string
		suffix  string
		withCum bool
	}{{cpu.Bytes(), "cpu", "cpu_pct", true}, {mem.Bytes(), "alloc_space", "alloc_pct", false}} {
		samples, err := parseProfile(p.prof, p.typ)
		if err != nil {
			return err
		}
		for name, v := range shares(samples, p.suffix, p.withCum) {
			rep.Ledger[name] = v
		}
	}
	timings, err := timeSetup(cfgs, last)
	if err != nil {
		return err
	}
	for name, v := range timings {
		rep.Ledger[name] = v
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// probeValues reads the traced run's Obs gauges (maxima over the run)
// and the measure/decide wall split, summed over the op's runs.
func probeValues(results []*core.Result) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probeMaxima {
		out[p.metric] = 0 // a gauge the workload never registers reads 0
	}
	var measureNS, decideNS int64
	for _, res := range results {
		if res == nil || res.Trace == nil {
			continue
		}
		for _, p := range probeMaxima {
			if s := res.Trace.Lookup(p.series); s != nil {
				for _, v := range s.Val {
					out[p.metric] = max(out[p.metric], v)
				}
			}
		}
		measureNS += res.Trace.Wall.MeasureNS
		decideNS += res.Trace.Wall.DecideNS
	}
	out["core.measure_ms"] = float64(measureNS) / 1e6
	out["core.decide_ms"] = float64(decideNS) / 1e6
	return out
}

// timeSetup times, setupRounds times each, the set-up calls an op makes
// into the capacity, topology, fleet, core and metrics layers, and
// returns each call's median summed over the list.
func timeSetup(cfgs []core.Config, last []*core.Result) (map[string]float64, error) {
	samples := map[string][]float64{}
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
	buildOnly := withDuration(cfgs, time.Millisecond)
	for r := 0; r < setupRounds; r++ {
		round := map[string]float64{}
		for _, cfg := range cfgs {
			topo := cfg.Topology
			if cfg.Capacity != nil {
				t0 := time.Now()
				if _, err := capacity.New(cfg.NumMNs, *cfg.Fleet, capacity.PlannerConfig{}); err != nil {
					return nil, err
				}
				round["capacity.new_ms"] += ms(t0)
				topo = cfg.Capacity.Topology
			}
			t0 := time.Now()
			if _, err := topology.Build(topo); err != nil {
				return nil, err
			}
			round["topology.build_ms"] += ms(t0)
			if cfg.Fleet != nil {
				t0 = time.Now()
				cfg.Fleet.Assign(cfg.NumMNs, cfg.Seed)
				round["fleet.assign_ms"] += ms(t0)
			}
		}
		t0 := time.Now()
		if err := runPass(buildOnly); err != nil {
			return nil, err
		}
		round["core.build_ms"] = ms(t0)
		t0 = time.Now()
		for _, res := range last {
			if res != nil {
				_ = res.Registry.Render()
			}
		}
		round["metrics.render_ms"] = ms(t0)
		for _, name := range setupTimings {
			samples[name] = append(samples[name], round[name])
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}

// runChild runs one child role to completion and returns its report.
func runChild(o options, role string, seconds float64, stderr io.Writer) (childReport, error) {
	var rep childReport
	cmd, err := childCommand(o, role, seconds)
	if err != nil {
		return rep, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &rep); err != nil {
		return rep, fmt.Errorf("%s child output: %w", role, err)
	}
	if len(rep.Ops) == 0 {
		return rep, fmt.Errorf("%s child ran no ops", role)
	}
	return rep, nil
}

func childCommand(o options, role string, seconds float64) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, o.childArgs(seconds)...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role)
	return cmd, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// probeSetup starts setupProbes fresh processes and times each from just
// before its start to its "ready" line: process start, runtime and
// package initialisation, input generation and the build-only pass.
func probeSetup(o options, stderr io.Writer) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd, err := childCommand(o, "setup", 0)
		if err != nil {
			return nil, err
		}
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0).Seconds()
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		if readErr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("setup child said %q (%v)", line, readErr)
		}
		out = append(out, d)
	}
	return out, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricReading `json:"metrics"`
}

type metricReading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func drive(o options, w workload, stdout, stderr io.Writer) error {
	cfgs, err := loadConfigs(w, o.seed, o.small)
	if err != nil {
		return err
	}
	prov, err := json.Marshal(stamp(o.workload, o.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	if o.trace == 1 {
		return driveTraced(o, w, cfgs, stdout, stderr)
	}

	setup, err := probeSetup(o, stderr)
	if err != nil {
		return err
	}
	rep, err := runChild(o, "measure", o.seconds, stderr)
	if err != nil {
		return err
	}
	ops := rep.Ops
	attempted, failed := len(ops), tally(ops)
	fmt.Fprintf(stdout, "workload %s: %d ops, %d failed\n", w.name, len(ops), failed)
	printProblems(stdout, ops)
	fmt.Fprintf(stdout, "digest sequential %s (%d of %d ops identical)\n", ops[0].Digest, len(ops)-countDigestMismatch(ops), len(ops))
	if w.parallelCheck {
		attempted++
		if !parallelMatches(w, cfgs, ops[0], stdout) {
			failed++
		}
	}
	fmt.Fprintf(stdout, "error_rate %g (%d of %d ops failed)\n", float64(failed)/float64(attempted), failed, attempted)

	values := map[string]float64{"setup_s": median(setup)}
	for _, m := range endToEnd {
		if _, ok := values[m.Name]; !ok {
			values[m.Name] = medianOf(ops, m.Name)
		}
	}
	fmt.Fprintf(stdout, "sim_delay_p95_ms %g (Summary.P95Latency, log-bucket quantile, averaged over runs)\n", medianOf(ops, "sim_delay_p95_ms"))
	fmt.Fprintf(stdout, "timings are medians over %d ops; setup_s is the median of %d fresh processes %.4g\n", len(ops), len(setup), setup)
	return emit(stdout, attempted, failed, endToEnd, values)
}

// parallelMatches runs the list once with the measurement phase on two
// workers and reports whether the op passed its checks with the
// sequential digest ref.
func parallelMatches(w workload, cfgs []core.Config, ref opResult, stdout io.Writer) bool {
	par, _ := runOp(w, withWorkers(cfgs, 2))
	verdict := "match"
	if par.Digest != ref.Digest {
		verdict = "MISMATCH"
	}
	printProblems(stdout, []opResult{par})
	fmt.Fprintf(stdout, "digest measure-workers=2 %s (%s)\n", par.Digest, verdict)
	return !par.failed(ref)
}

func driveTraced(o options, w workload, cfgs []core.Config, stdout, stderr io.Writer) error {
	plain, err := runChild(o, "measure", o.seconds/2, stderr)
	if err != nil {
		return err
	}
	traced, err := runChild(o, "traced", o.seconds/2, stderr)
	if err != nil {
		return err
	}
	ref := plain.Ops[0]
	attempted := len(plain.Ops) + len(traced.Ops)
	failed := tally(plain.Ops)
	for _, op := range traced.Ops {
		// Arming Obs must not change what is simulated.
		if op.failed(traced.Ops[0]) || strings.Join(op.Summaries, "\n") != strings.Join(ref.Summaries, "\n") {
			failed++
		}
	}
	fmt.Fprintf(stdout, "workload %s: %d untraced + %d traced ops\n", w.name, len(plain.Ops), len(traced.Ops))
	printProblems(stdout, plain.Ops)
	printProblems(stdout, traced.Ops)
	fmt.Fprintf(stdout, "digest sequential %s, traced %s\n", ref.Digest, traced.Ops[0].Digest)
	if w.parallelCheck {
		attempted++
		if !parallelMatches(w, cfgs, ref, stdout) {
			failed++
		}
	}
	fmt.Fprintf(stdout, "error_rate %g (%d of %d ops failed)\n", float64(failed)/float64(attempted), failed, attempted)

	values := traced.Ledger
	values["trace.overhead_pct"] = 100 * (medianOf(traced.Ops, "wall_s")/medianOf(plain.Ops, "wall_s") - 1)
	// The untraced ops supply every metric counted every op; the traced
	// ops add the Obs probes and the measure/decide split.
	for _, m := range perLayer() {
		if _, ok := values[m.Name]; ok {
			continue
		}
		for _, ops := range [][]opResult{plain.Ops, traced.Ops} {
			if _, ok := ops[0].Values[m.Name]; ok {
				values[m.Name] = medianOf(ops, m.Name)
				break
			}
		}
	}

	var cpuSum, allocSum float64
	for _, g := range groups {
		cpuSum += values[g+".cpu_pct"]
		allocSum += values[g+".alloc_pct"]
		fmt.Fprintf(stdout, "ledger %-15s cpu %6.2f%%  alloc %6.2f%%\n", g, values[g+".cpu_pct"], values[g+".alloc_pct"])
	}
	fmt.Fprintf(stdout, "ledger sum            cpu %6.2f%%  alloc %6.2f%%\n", cpuSum, allocSum)
	return emit(stdout, attempted, failed, perLayer(), values)
}

func printProblems(w io.Writer, ops []opResult) {
	for i, op := range ops {
		for _, p := range op.Problems {
			fmt.Fprintf(w, "op %d failed: %s\n", i, p)
		}
	}
}

func countDigestMismatch(ops []opResult) int {
	n := 0
	for _, op := range ops {
		if op.Digest != ops[0].Digest {
			n++
		}
	}
	return n
}

// emit prints every listed metric by name and unit, then the result line.
func emit(stdout io.Writer, attempted, failed int, defs []metricDef, values map[string]float64) error {
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricReading{},
	}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(stdout, "metric %-34s %-14.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricReading{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func medianOf(ops []opResult, name string) float64 {
	var xs []float64
	for _, op := range ops {
		if v, ok := op.Values[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
