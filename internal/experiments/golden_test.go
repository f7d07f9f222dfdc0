package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/topology"
)

// The goldens pin byte-exact output at a fixed seed: the E1–E8 suite,
// one table per matrix experiment, and the JSONL export of one traced
// run. Their job is to prove that engine optimizations are
// behaviour-preserving: any change to event ordering, RNG draw
// sequence, packet accounting, fault schedules or policy decisions
// shows up as a diff. Every golden must also come out byte-identical
// under the per-scenario parallel measurement phase, and every table
// golden on eight scenario workers. Regenerate deliberately with:
//
//	go test ./internal/experiments -run 'TestGolden.*ByteIdentical' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the files under testdata/ from the current engine")

// golden is one pinned output and the ways it must be reproduced.
type golden struct {
	name string
	file string
	opt  Options
	run  func(Options) (string, error)
	// parallel also checks Parallel=8 against the sequential bytes.
	parallel bool
	// workers are the MeasureWorkers counts that must render the golden.
	workers []int
}

// matrixGoldens pins each registry matrix at small populations. The
// matrices are spelled out here rather than derived from the Default*
// constructors, so a change to what cmd/mmscale runs by default leaves
// the pinned inputs alone. The fault matrices run 4 virtual seconds
// (not the 2 s floor) so recovery has room after the outage window
// closes; E13's 500 MNs is the smallest crowd that both dimensions a
// 2-root arena and saturates the hot root, and E14's pushes the hot
// subtree past both ladder thresholds.
var matrixGoldens = map[string]struct {
	opt Options
	m   func() Matrix
}{
	"E9": {Options{Seed: 7, TimeScale: 0.05, Reps: 2, Parallel: 1}, func() Matrix {
		return &ScaleSweep{Axis: goldenAxis(fleet.DefaultSpec(), 40, 80), Schemes: core.Schemes()}
	}},
	"E10": {Options{Seed: 7, TimeScale: 0.05, Reps: 1, Parallel: 1}, func() Matrix {
		return &CapacityMatrix{Axis: goldenAxis(fleet.DefaultSpec(), 40, 80), Schemes: core.Schemes()}
	}},
	"E11": {Options{Seed: 7, TimeScale: 0.4, Reps: 1, Parallel: 1}, func() Matrix {
		return &ResilienceMatrix{Axis: goldenAxis(fleet.DefaultSpec(), 40), Schemes: core.Schemes()}
	}},
	"E13": {Options{Seed: 7, TimeScale: 0.4, Reps: 1, Parallel: 1}, func() Matrix {
		return &CrowdMatrix{Axis: goldenAxis(HotspotSpec(), 500), policy: &closedLoop}
	}},
	"E14": {Options{Seed: 7, TimeScale: 0.4, Reps: 1, Parallel: 1}, func() Matrix {
		return &CrowdMatrix{Axis: goldenAxis(DegradationSpec(), 500), policy: &degradation}
	}},
}

// goldenAxis is a golden matrix's axis: 10 virtual seconds (before
// Options.TimeScale) of spec at the given populations.
func goldenAxis(spec fleet.Spec, pops ...int) Axis {
	return Axis{Populations: pops, Duration: 10 * time.Second, Spec: spec}
}

// goldenMatrix returns a matrix golden's options and a fresh copy of its
// matrix, so the behavioural tests run on the pinned cells.
func goldenMatrix(t *testing.T, id string) (Options, Matrix) {
	t.Helper()
	g, ok := matrixGoldens[id]
	if !ok {
		t.Fatalf("matrix %s has no golden", id)
	}
	return g.opt, g.m()
}

func goldens(t *testing.T) []golden {
	gs := []golden{{
		name: "suite",
		file: "golden_suite.txt",
		opt:  Options{Seed: 7, TimeScale: 0.05, Reps: 2, Parallel: 1},
		run: func(opt Options) (string, error) {
			tables, err := All(opt)
			return renderTables(tables), err
		},
		parallel: true,
		workers:  []int{2, 5},
	}}
	for _, e := range Matrices() {
		opt, m := goldenMatrix(t, e.ID)
		gs = append(gs, golden{
			name: e.ID,
			file: "golden_" + strings.ToLower(e.ID) + ".txt",
			opt:  opt,
			run: func(opt Options) (string, error) {
				tbl, err := RunMatrix(opt, m)
				if err != nil {
					return "", err
				}
				return tbl.String() + "\n", nil
			},
			parallel: true,
			workers:  []int{4},
		})
	}
	return append(gs, golden{
		name:    "trace",
		file:    "golden_trace.jsonl",
		run:     runGoldenTrace,
		workers: []int{4},
	})
}

// The three checks every golden is held to, one test per golden and
// check, all driven by the one table above.
func TestGoldenSuiteByteIdentical(t *testing.T)              { goldenBytes(t, "suite") }
func TestGoldenSuiteParallelMatches(t *testing.T)            { goldenParallel(t, "suite") }
func TestGoldenSuiteParallelMeasurementMatches(t *testing.T) { goldenMeasurement(t, "suite") }
func TestGoldenE9ByteIdentical(t *testing.T)                 { goldenBytes(t, "E9") }
func TestGoldenE9ParallelMatches(t *testing.T)               { goldenParallel(t, "E9") }
func TestGoldenE9ParallelMeasurementMatches(t *testing.T)    { goldenMeasurement(t, "E9") }
func TestGoldenE10ByteIdentical(t *testing.T)                { goldenBytes(t, "E10") }
func TestGoldenE10ParallelMatches(t *testing.T)              { goldenParallel(t, "E10") }
func TestGoldenE10ParallelMeasurementMatches(t *testing.T)   { goldenMeasurement(t, "E10") }
func TestGoldenE11ByteIdentical(t *testing.T)                { goldenBytes(t, "E11") }
func TestGoldenE11ParallelMatches(t *testing.T)              { goldenParallel(t, "E11") }
func TestGoldenE11ParallelMeasurementMatches(t *testing.T)   { goldenMeasurement(t, "E11") }
func TestGoldenE13ByteIdentical(t *testing.T)                { goldenBytes(t, "E13") }
func TestGoldenE13ParallelMatches(t *testing.T)              { goldenParallel(t, "E13") }
func TestGoldenE13ParallelMeasurementMatches(t *testing.T)   { goldenMeasurement(t, "E13") }
func TestGoldenE14ByteIdentical(t *testing.T)                { goldenBytes(t, "E14") }
func TestGoldenE14ParallelMatches(t *testing.T)              { goldenParallel(t, "E14") }
func TestGoldenE14ParallelMeasurementMatches(t *testing.T)   { goldenMeasurement(t, "E14") }
func TestGoldenTraceByteIdentical(t *testing.T)              { goldenBytes(t, "trace") }
func TestGoldenTraceParallelMeasurementMatches(t *testing.T) { goldenMeasurement(t, "trace") }

func goldenNamed(t *testing.T, name string) golden {
	t.Helper()
	for _, g := range goldens(t) {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no golden %q", name)
	return golden{}
}

func goldenPath(g golden) string { return filepath.Join("testdata", g.file) }

func readGolden(t *testing.T, g golden) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath(g))
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	return string(want)
}

// goldenBytes requires the sequential run to match testdata/ byte for
// byte, rewriting the file first under -update-golden.
func goldenBytes(t *testing.T, name string) {
	g := goldenNamed(t, name)
	got := mustRun(t, g, g.opt)
	if *updateGolden {
		if err := os.WriteFile(goldenPath(g), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath(g), len(got))
	}
	want := readGolden(t, g)
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("diverged from %s (got %d bytes, want %d): %s", goldenPath(g), len(got), len(want), d)
	}
}

// goldenParallel requires eight scenario workers to render the same
// bytes as one.
func goldenParallel(t *testing.T, name string) {
	g := goldenNamed(t, name)
	if !g.parallel {
		t.Fatalf("golden %q is not checked in parallel", name)
	}
	seq := mustRun(t, g, g.opt)
	opt := g.opt
	opt.Parallel = 8
	if d := firstDiff(mustRun(t, g, opt), seq); d != "" {
		t.Fatalf("Parallel=8 diverged from sequential: %s", d)
	}
}

// goldenMeasurement requires each of the golden's measure-worker counts
// to render testdata/ exactly.
func goldenMeasurement(t *testing.T, name string) {
	g := goldenNamed(t, name)
	want := readGolden(t, g)
	for _, w := range g.workers {
		opt := g.opt
		opt.MeasureWorkers = w
		if d := firstDiff(mustRun(t, g, opt), want); d != "" {
			t.Errorf("MeasureWorkers=%d diverged from %s: %s", w, goldenPath(g), d)
		}
	}
}

func mustRun(t *testing.T, g golden, opt Options) string {
	t.Helper()
	out, err := g.run(opt)
	if err != nil {
		t.Fatalf("%s (parallel %d, measure workers %d): %v", g.name, opt.Parallel, opt.MeasureWorkers, err)
	}
	return out
}

func renderTables(tables []*Table) string {
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDiff describes the first line on which got and want differ — for
// the trace golden, the first diverging event — or returns "" when they
// are identical.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	// Only the last piece of a SplitAfter lacks the newline, so unequal
	// inputs differ at some index inside both slices.
	g := strings.SplitAfter(got, "\n")
	w := strings.SplitAfter(want, "\n")
	i := 0
	for g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("first difference at line %d\n got: %q\nwant: %q", i+1, g[i], w[i])
}

func TestFirstDiff(t *testing.T) {
	for _, c := range []struct{ got, want, diff string }{
		{"a\nb\n", "a\nb\n", ""},
		{"", "", ""},
		{"a\nb\nc\n", "a\nB\nc\n", "first difference at line 2\n got: \"b\\n\"\nwant: \"B\\n\""},
		{"a\n", "a\nb\n", "first difference at line 2\n got: \"\"\nwant: \"b\\n\""},
		{"a\nb", "a\nb\n", "first difference at line 2\n got: \"b\"\nwant: \"b\\n\""},
		{"x", "", "first difference at line 1\n got: \"x\"\nwant: \"\""},
		{"a\nb\n", "a\n", "first difference at line 2\n got: \"b\\n\"\nwant: \"\""},
	} {
		if d := firstDiff(c.got, c.want); d != c.diff {
			t.Errorf("firstDiff(%q, %q) = %q, want %q", c.got, c.want, d, c.diff)
		}
	}
}

// goldenTraceConfig exercises every event family at once: the multi-tier
// scheme (handoff spans and auth accounting) under a root outage (fault
// windows, recovery t90, the registration storm) with a mixed fleet, the
// packet arena armed (arena probes), periodic sampling and packet
// lifecycle sampling.
func goldenTraceConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMultiTier
	cfg.NumMNs = 16
	cfg.Duration = 10 * time.Second
	cfg.Seed = 7
	spec := fleet.DefaultSpec()
	cfg.Fleet = &spec
	cfg.PacketArena = true
	cfg.AuthEnabled = true
	cfg.AuthCPUCostNS = defaultAuthCPUCostNS
	cfg.Faults = &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.3, Duration: 0.2}},
	}
	cfg.Obs = &obs.Config{
		SampleInterval:    500 * time.Millisecond,
		PacketSampleEvery: 8,
	}
	return cfg
}

// runGoldenTrace runs the golden trace scenario — only MeasureWorkers is
// taken from the options — and exports its trace. (Wall-clock spend is
// excluded from the export precisely so the measure-worker identity can
// hold.)
func runGoldenTrace(opt Options) (string, error) {
	cfg := goldenTraceConfig()
	cfg.MeasureWorkers = opt.MeasureWorkers
	res, err := core.Run(cfg)
	if err != nil {
		return "", err
	}
	if res.Trace == nil {
		return "", fmt.Errorf("traced run returned no trace")
	}
	if n := res.Trace.Dropped(); n > 0 {
		return "", fmt.Errorf("trace overflowed: %d events dropped (raise capacity)", n)
	}
	var buf bytes.Buffer
	err = res.Trace.WriteJSONL(&buf)
	return buf.String(), err
}
