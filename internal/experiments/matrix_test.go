package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/topology"
)

// rejectCases is the one validation table: the Axis rules every matrix
// shares, the scheme rule of E9–E11, the fault-profile rules of E11,
// E13 and E14, plus each matrix's own knobs, keyed "<ID>/<case>".
// Unsorted, duplicate and non-positive population axes used to be
// accepted silently (duplicates doubled the run time, unsorted axes
// rendered misordered tables).
func rejectCases() map[string]Matrix {
	axisCases := map[string]func(*Axis){
		"empty":        func(a *Axis) { a.Populations = nil },
		"non-positive": func(a *Axis) { a.Populations = []int{0, 40} },
		"negative":     func(a *Axis) { a.Populations = []int{-5} },
		"duplicate":    func(a *Axis) { a.Populations = []int{40, 40} },
		"unsorted":     func(a *Axis) { a.Populations = []int{80, 40} },
		"no-duration":  func(a *Axis) { a.Duration = 0 },
		"no-spec":      func(a *Axis) { a.Spec = fleet.Spec{} },
	}
	profileCases := map[string]FaultProfiles{
		"nil-plan": {{Name: "x"}},
		"unnamed":  {{Plan: &faults.Plan{}}},
		"bad-plan": {{Name: "bad", Plan: &faults.Plan{
			Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 0, Start: 0.5, Duration: 0.1}},
		}}},
	}
	cases := map[string]Matrix{}
	for _, e := range Matrices() {
		for name, mutate := range axisCases {
			m := e.Default()
			mutate(m.axis())
			cases[e.ID+"/"+name] = m
		}
	}

	sw, cm, rm := DefaultScaleSweep(), DefaultCapacityMatrix(), DefaultResilienceMatrix()
	sw.Schemes, cm.Schemes, rm.Schemes = nil, nil, nil
	cases["E9/no-schemes"], cases["E10/no-schemes"], cases["E11/no-schemes"] = &sw, &cm, &rm
	cases["E9/zero-value"] = &ScaleSweep{}
	bad := DefaultCapacityMatrix()
	bad.Planner.MNsPerMicro = -1
	cases["E10/bad-planner"] = &bad

	crowds := []func() CrowdMatrix{DefaultClosedLoopMatrix, DefaultDegradationMatrix}
	for name, ps := range profileCases {
		m := DefaultResilienceMatrix()
		m.Profiles = ps
		cases["E11/"+name] = &m
		for _, def := range crowds {
			c := def()
			c.Profiles = ps
			cases[c.policy.id+"/"+name] = &c
		}
	}
	for _, def := range crowds {
		neg, planner := def(), def()
		neg.SampleInterval = -time.Second
		planner.Planner.MNsPerMicro = -1
		cases[neg.policy.id+"/neg-sample"], cases[planner.policy.id+"/bad-planner"] = &neg, &planner
	}
	cases["E13/no-policy"] = &CrowdMatrix{Axis: DefaultClosedLoopMatrix().Axis}
	return cases
}

// checkRejects runs the id matrix's rejectCases that keep selects (all
// of them when keep is nil) through the validate-and-plan step RunMatrix
// uses: each must fail before any scenario runs.
func checkRejects(t *testing.T, id string, keep func(string) bool) {
	ran := 0
	for name, m := range rejectCases() {
		c, ok := strings.CutPrefix(name, id+"/")
		if !ok || (keep != nil && !keep(c)) {
			continue
		}
		ran++
		t.Run(c, func(t *testing.T) {
			if _, _, err := prepare(Options{}, m); err == nil {
				t.Error("matrix accepted")
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no reject cases for %s", id)
	}
}

func emptySweep(c string) bool { return c == "zero-value" || c == "empty" }

func TestE9RejectsEmptySweep(t *testing.T) { checkRejects(t, "E9", emptySweep) }
func TestE9RejectsBadPopulationAxis(t *testing.T) {
	checkRejects(t, "E9", func(c string) bool { return !emptySweep(c) })
}
func TestE10RejectsBadMatrix(t *testing.T) { checkRejects(t, "E10", nil) }
func TestE11RejectsBadMatrix(t *testing.T) { checkRejects(t, "E11", nil) }
func TestE13RejectsBadMatrix(t *testing.T) { checkRejects(t, "E13", nil) }
func TestE14RejectsBadMatrix(t *testing.T) { checkRejects(t, "E14", nil) }

// TestE9EveryProfilePopulated guards the table contents (not just the
// bytes): each cell's per-profile rows report non-zero populations that
// sum exactly to the cell's MN count.
func TestE9EveryProfilePopulated(t *testing.T) {
	opt, m := goldenMatrix(t, "E9")
	sw := m.(*ScaleSweep)
	tbl, err := RunMatrix(opt, sw)
	if err != nil {
		t.Fatal(err)
	}
	profiles := len(sw.Spec.Profiles)
	cells := 0
	for i, row := range tbl.Rows {
		if row[2] != "all" {
			continue
		}
		cells++
		cellMNs, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("cell row %d has non-numeric MNs %q", i, row[3])
		}
		sum := 0
		for j := 1; j <= profiles; j++ {
			prow := tbl.Rows[i+j]
			if prow[2] != sw.Spec.Profiles[j-1].Name {
				t.Fatalf("row %d: profile %q out of order (want %q)", i+j, prow[2], sw.Spec.Profiles[j-1].Name)
			}
			pop, err := strconv.Atoi(prow[3])
			if err != nil || pop <= 0 {
				t.Fatalf("profile %q reports population %q", prow[2], prow[3])
			}
			sum += pop
		}
		if sum != cellMNs {
			t.Fatalf("row %d: profile populations sum to %d, cell has %d MNs", i, sum, cellMNs)
		}
	}
	if want := len(sw.Populations) * len(sw.Schemes); cells != want {
		t.Fatalf("table has %d cells, want %d", cells, want)
	}
}

// TestE9SignallingColumnsOptIn proves the attribution columns appear
// exactly when asked for, so the pinned golden (signalling off) and the
// enriched table coexist.
func TestE9SignallingColumnsOptIn(t *testing.T) {
	opt, m := goldenMatrix(t, "E9")
	sw := m.(*ScaleSweep)
	sw.Populations = []int{40}
	sw.Schemes = []core.Scheme{core.SchemeMultiTier}
	plain, err := RunMatrix(opt, sw)
	if err != nil {
		t.Fatal(err)
	}
	sw.PerProfileSignalling = true
	rich, err := RunMatrix(opt, sw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rich.Header), len(plain.Header)+2; got != want {
		t.Fatalf("signalling header has %d columns, want %d", got, want)
	}
	if rich.Header[len(rich.Header)-2] != "loc upd/MN" || rich.Header[len(rich.Header)-1] != "pages" {
		t.Fatalf("signalling columns misnamed: %v", rich.Header)
	}
	// Active multi-tier MNs refresh location state every second, so the
	// per-profile location-update columns must be non-zero.
	for i, row := range rich.Rows {
		if len(row) != len(rich.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(rich.Header))
		}
		if row[len(row)-2] == "0.00" {
			t.Fatalf("row %d attributes no location updates: %v", i, row)
		}
	}
}

// TestE10DimensionedShedsLess pins E10's headline claim at 5k MNs: on
// the fixed 13-cell topology the multi-tier scheme sheds the majority
// of admission decisions for capacity, while the dimensioned arena
// sheds under 10% — proving the matrix separates scheme cost from raw
// capacity exhaustion.
func TestE10DimensionedShedsLess(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-MN scenario pair is too heavy for -short")
	}
	m := DefaultCapacityMatrix()
	m.Populations = []int{5000}
	m.Schemes = []core.Scheme{core.SchemeMultiTier}
	opt, p, err := prepare(Options{Seed: 7, TimeScale: 0.2, Reps: 1, Parallel: 2}, &m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.execute(p.num, p.jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("matrix ran %d jobs, want 2", len(res))
	}
	fixed := res[0].Stat(shedRate).Mean
	dimensioned := res[1].Stat(shedRate).Mean
	if fixed <= 0.5 {
		t.Errorf("fixed 13-cell topology shed rate %.1f%% at 5k MNs, expected > 50%%", 100*fixed)
	}
	if dimensioned >= 0.1 {
		t.Errorf("dimensioned topology shed rate %.1f%% at 5k MNs, expected < 10%%", 100*dimensioned)
	}
}

// TestE10FlatSchemesRunOnDimensionedArena guards the "any scheme can
// run on a dimensioned arena" threading: the golden matrix includes all
// four schemes, and the flat schemes must report zero admission
// decisions (no admission model) while still delivering traffic.
func TestE10FlatSchemesRunOnDimensionedArena(t *testing.T) {
	opt, m := goldenMatrix(t, "E10")
	cm := m.(*CapacityMatrix)
	cm.Populations = []int{40}
	cm.Schemes = []core.Scheme{core.SchemeMobileIP, core.SchemeCellularIPHard}
	opt, p, err := prepare(opt, cm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.execute(p.num, p.jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Job.Config.Capacity == nil {
			continue // fixed column
		}
		run := r.First()
		if run == nil {
			t.Fatalf("%s: no completed run", r.Job.Label)
		}
		if run.Summary.Delivered == 0 {
			t.Errorf("%s: delivered nothing on the dimensioned arena", r.Job.Label)
		}
		if got := r.Counter("tier.admission.admitted"); got.Mean != 0 {
			t.Errorf("%s: flat scheme reports %v multi-tier admissions", r.Job.Label, got.Mean)
		}
	}
}

// TestE10RootOccupancyColumnOptIn proves the per-root load-balance
// column appears exactly when asked for (the pinned golden keeps its
// bytes without it) and that multi-tier rows on a dimensioned multi-root
// grid actually report a spread.
func TestE10RootOccupancyColumnOptIn(t *testing.T) {
	opt, m := goldenMatrix(t, "E10")
	cm := m.(*CapacityMatrix)
	cm.Populations = []int{80}
	cm.Schemes = []core.Scheme{core.SchemeMultiTier}
	plain, err := RunMatrix(opt, cm)
	if err != nil {
		t.Fatal(err)
	}
	cm.PerRootOccupancy = true
	rich, err := RunMatrix(opt, cm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rich.Header), len(plain.Header)+1; got != want {
		t.Fatalf("root-occupancy header has %d columns, want %d", got, want)
	}
	if rich.Header[len(rich.Header)-1] != "root occ spread" {
		t.Fatalf("root-occupancy column misnamed: %v", rich.Header)
	}
	for i, row := range rich.Rows {
		if len(row) != len(rich.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(rich.Header))
		}
		// Multi-tier runs admission control, so every row (fixed and
		// dimensioned) must report per-root occupancy, not "-".
		if cell := row[len(row)-1]; cell == "-" || cell == "" {
			t.Fatalf("row %d reports no root occupancy: %v", i, row)
		}
	}
}

// TestE11RecoveryConverges pins E11's recovery claim: after a root
// outage on the multi-tier scheme, at least 90% of the MNs the outage
// deregistered are re-registered again within the recovery window, and
// the t90 sample records how long that took.
func TestE11RecoveryConverges(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMultiTier
	cfg.NumMNs = 16
	cfg.Duration = 20 * time.Second
	cfg.AuthEnabled = true
	cfg.Faults = &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.3, Duration: 0.2}},
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Registry
	affected := reg.Counter("fault.recovery.affected").Value()
	if affected == 0 {
		t.Fatal("root outage deregistered no MNs")
	}
	recovered := reg.Counter("fault.recovery.recovered").Value()
	if 10*recovered < 9*affected {
		t.Fatalf("recovery converged %d of %d affected MNs, want >= 90%%", recovered, affected)
	}
	if reg.Sample("fault.recovery.t90_s").Count() == 0 {
		t.Fatal("no t90 recovery sample recorded")
	}
}

// crowdTwins runs one cell of a crowd golden matrix bare and armed.
func crowdTwins(t *testing.T, id string, np faults.NamedPlan) (bare, armed *core.Result) {
	t.Helper()
	opt, mat := goldenMatrix(t, id)
	m := mat.(*CrowdMatrix)
	n := m.Populations[0]
	dim, err := capacity.New(n, m.Spec, m.Planner)
	if err != nil {
		t.Fatal(err)
	}
	run := func(on bool) *core.Result {
		res, err := core.Run(m.cell(opt, dim, n, np, on))
		if err != nil {
			t.Fatalf("core.Run(%s armed=%v): %v", id, on, err)
		}
		return res
	}
	return run(false), run(true)
}

// TestE13ClosedLoopImproves pins E13's claim on a single blackout cell:
// against the open-loop twin of the same run, the closed loop must
// actually shift budget (the hot alert fired), must actually pre-page
// (the dip alert fired), shed strictly less capacity on admission, and
// recover no slower.
func TestE13ClosedLoopImproves(t *testing.T) {
	open, closed := crowdTwins(t, "E13", closedLoopProfiles()[1])

	if v := closed.Registry.Counter("ctl.shift.count").Value(); v == 0 {
		t.Error("closed loop shifted no budget (hot-occupancy alert never raised)")
	}
	if v := closed.Registry.Counter("ctl.prepage.signals").Value(); v == 0 {
		t.Error("closed loop sent no pre-paging signals (survival-dip alert never raised)")
	}
	openShed := open.Registry.Counter("tier.admission.shed_capacity").Value()
	closedShed := closed.Registry.Counter("tier.admission.shed_capacity").Value()
	if closedShed >= openShed {
		t.Errorf("closed loop shed %d capacity refusals, open loop %d; want strictly fewer", closedShed, openShed)
	}
	openT90 := open.Registry.Sample("fault.recovery.t90_s")
	closedT90 := closed.Registry.Sample("fault.recovery.t90_s")
	if openT90.Count() == 0 || closedT90.Count() == 0 {
		t.Fatalf("t90 samples missing: open %d, closed %d", openT90.Count(), closedT90.Count())
	}
	if closedT90.Mean() > openT90.Mean() {
		t.Errorf("closed-loop t90 %.3fs slower than open-loop %.3fs; pre-paging must not hurt recovery",
			closedT90.Mean(), openT90.Mean())
	}
	t.Logf("shed: open %d closed %d; t90: open %.3fs closed %.3fs; shifts %d (ch %d) prepages %d",
		openShed, closedShed, openT90.Mean(), closedT90.Mean(),
		closed.Registry.Counter("ctl.shift.count").Value(),
		closed.Registry.Counter("ctl.shift.channels").Value(),
		closed.Registry.Counter("ctl.prepage.signals").Value())
}

// TestE14GracefulBeatsCliff pins E14's claim on a single storm cell:
// against the cliff twin of the same run, the graceful mode must
// actually degrade (defer, preempt, step video down, pace the recovery
// storm), keep conversational and handoff admission success at or above
// 90% while the cliff falls below it, hold voice survival, and shed
// strictly less raw capacity — the cliff refuses whatever arrived last,
// the ladder refuses what it chose to spend.
func TestE14GracefulBeatsCliff(t *testing.T) {
	storm := degradationProfiles()[1]
	if storm.Name != "storm" {
		t.Fatalf("expected storm profile second, got %q", storm.Name)
	}
	cliff, graceful := crowdTwins(t, "E14", storm)

	// The cliff must carry zero degradation residue: no policy, no events.
	for _, name := range []string{
		"ctl.degrade.deferred", "ctl.degrade.preempted",
		"ctl.degrade.video_stepdowns", "ctl.degrade.breaker.paced",
	} {
		if v := cliff.Registry.Counter(name).Value(); v != 0 {
			t.Errorf("cliff run has %s = %d; want 0", name, v)
		}
	}
	// The graceful run must exercise every lever.
	for _, name := range []string{
		"ctl.degrade.deferred", "ctl.degrade.preempted",
		"ctl.degrade.video_stepdowns", "ctl.degrade.breaker.paced",
		"ctl.degrade.breaker.opens",
	} {
		if v := graceful.Registry.Counter(name).Value(); v == 0 {
			t.Errorf("graceful run never fired %s", name)
		}
	}

	voiceAdm := admissionSuccess(
		"tier.admission.class.conversational.admitted",
		"tier.admission.class.conversational.refused")
	hoAdm := admissionSuccess(
		"tier.admission.handoff.admitted",
		"tier.admission.handoff.refused")
	if g, c := voiceAdm(graceful), voiceAdm(cliff); g < 0.90 || g <= c {
		t.Errorf("voice admission success: graceful %.4f, cliff %.4f; want graceful >= 0.90 and above cliff", g, c)
	}
	if g, c := hoAdm(graceful), hoAdm(cliff); g < 0.90 || g <= c {
		t.Errorf("handoff admission success: graceful %.4f, cliff %.4f; want graceful >= 0.90 and above cliff", g, c)
	}
	voiceSurv := classSurvival("crowd-voice")
	if g, c := voiceSurv(graceful), voiceSurv(cliff); g < 0.90 || g < c-1e-9 {
		t.Errorf("voice survival: graceful %.4f, cliff %.4f; want graceful >= 0.90 and no worse than cliff", g, c)
	}
	cliffShed := cliff.Registry.Counter("tier.admission.shed_capacity").Value()
	gracefulShed := graceful.Registry.Counter("tier.admission.shed_capacity").Value()
	if gracefulShed >= cliffShed {
		t.Errorf("graceful shed %d capacity refusals, cliff %d; want strictly fewer", gracefulShed, cliffShed)
	}
	t.Logf("voice-adm: cliff %.4f graceful %.4f; ho-adm: cliff %.4f graceful %.4f; shed: cliff %d graceful %d",
		voiceAdm(cliff), voiceAdm(graceful), hoAdm(cliff), hoAdm(graceful), cliffShed, gracefulShed)
	t.Logf("graceful levers: deferred %d preempted %d stepdowns %d paced %d opens %d",
		graceful.Registry.Counter("ctl.degrade.deferred").Value(),
		graceful.Registry.Counter("ctl.degrade.preempted").Value(),
		graceful.Registry.Counter("ctl.degrade.video_stepdowns").Value(),
		graceful.Registry.Counter("ctl.degrade.breaker.paced").Value(),
		graceful.Registry.Counter("ctl.degrade.breaker.opens").Value())
}
