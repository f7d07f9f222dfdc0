package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/topology"
)

// closedLoop is E13's policy: the closed loop measured against its own
// open-loop baseline. The open twin records telemetry only; the closed
// twin arms Config.Control — elastic admission shifting budgets toward
// the hot root, plus post-fault pre-paging.
//
// The claim it pins: deciding from the same sim-time telemetry the run
// records anyway, elastic admission moves channel budget from idle
// roots to the hot one (shed-capacity and loss drop) and survival-dip
// pre-paging pulls post-blackout re-registration forward (t90 drops) —
// while staying byte-identical between sequential and parallel
// measurement, because every decision derives from samples on the
// sampling cadence.
var closedLoop = crowdPolicy{
	num:      13,
	id:       "E13",
	title:    "Closed-loop control: open vs closed x fault profile (mix %s, dimensioned, auth on)",
	column:   "loop",
	modes:    [2]string{"open", "closed"},
	arm:      func(cfg *core.Config) { cfg.Control = e13Control(cfg.Duration) },
	standard: closedLoopProfiles,
	header: []string{"loss", "survival", "t90 recovery",
		"admitted", "shed-capacity", "shed-fault",
		"alerts", "shifted-ch", "prepages"},
	cells: func(r runner.JobResult) []string {
		return []string{
			fmtStatPct(r.LossRate()),
			fmtStatPct(r.Stat(survivalRate)),
			t90Recovery(r),
			fmtStatI(r.Counter("tier.admission.admitted")),
			fmtStatI(r.Counter("tier.admission.shed_capacity")),
			fmtStatI(r.Counter("tier.admission.shed_fault")),
			fmtStatI(r.Counter("ctl.alerts.raised")),
			fmtStatI(r.Counter("ctl.shift.channels")),
			fmtStatI(r.Counter("ctl.prepage.signals"))}
	},
	notes: func(t *Table) {
		t.AddNote("open rows record the same telemetry at the same cadence but attach no policy: every ctl.* column reads 0 and the pair isolates the feedback loop's effect")
		t.AddNote("elastic admission: occupancy mean > %.2f for %s shifts %.0f%% of the coolest root's per-station budgets to the hot root (reverted on clear); shifted-ch counts channels moved", 0.80, "dur/20", 50.0)
		t.AddNote("pre-paging: registered fraction < %.2f forces the still-unregistered MNs' location refreshes forward on every sampling tick instead of waiting out idle paging timers", 0.90)
		t.AddNote("t90 recovery as in E11; the blackout downs every root, so closed-loop rows measure pre-paging on the hot root's own storm")
	},
}

// closedLoopProfiles are the default E13 fault rows: baseline (no
// faults, probes armed) and root-blackout. The blackout asks for more
// roots than any dimensioned arena has, and the fault expander clamps
// the count to the cells that exist — so every root goes down,
// deterministically including the hot one, and the t90 column compares
// recovery of the same storm with and without pre-paging.
func closedLoopProfiles() []faults.NamedPlan {
	return []faults.NamedPlan{
		{Name: "baseline", Plan: &faults.Plan{}},
		{Name: "root-blackout", Plan: &faults.Plan{
			Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 64, Start: 0.35, Duration: 0.20}},
		}},
	}
}

// HotspotSpec is the crowd-at-the-stadium population: every class is
// slow (below the planner's macro-speed split, so root budgets stay at
// their base dimensioning) and moves under the hotspot model, which
// confines waypoints to the first root's subtree. The demand piles onto
// one root while its siblings idle — exactly the imbalance the paper's
// multi-tier resource model leaves to management policy.
func HotspotSpec() fleet.Spec {
	return fleet.Spec{Profiles: []fleet.Profile{
		{Name: "crowd-voice", Share: 70, Mobility: "hotspot", SpeedMPS: 1.4, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Voice: true}},
		{Name: "crowd-video", Share: 30, Mobility: "hotspot", SpeedMPS: 1.0, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Video: true}},
	}}
}

// DefaultClosedLoopMatrix is the full E13 matrix cmd/mmscale -closedloop
// runs: two crowd sizes (2 and 3 roots dimensioned), both default
// profiles, open vs closed. A root's subtree always spans 4 domains of
// floor-budget small cells (~576 channels), so crowds from ~500 up run
// the hot subtree past the 0.80 occupancy trigger.
func DefaultClosedLoopMatrix() CrowdMatrix {
	return CrowdMatrix{
		Axis: Axis{
			Populations: []int{500, 800},
			Duration:    10 * time.Second,
			Spec:        HotspotSpec(),
		},
		policy: &closedLoop,
	}
}

// SuiteClosedLoopMatrix is the reduced E13 matrix mmbench and the
// benchmark harness run: one crowd, the blackout profile only.
func SuiteClosedLoopMatrix() CrowdMatrix {
	m := DefaultClosedLoopMatrix()
	m.Populations = []int{500}
	m.Profiles = closedLoopProfiles()[1:]
	return m
}

// e13Control is the policy both closed rows and the improvement tests
// arm: occupancy mean over a tenth of the run crossing 0.80 marks a
// root hot (wide hysteresis so one shift holds instead of flapping),
// and a registered fraction under 0.90 starts pre-paging immediately.
func e13Control(dur time.Duration) *core.ControlConfig {
	return &core.ControlConfig{
		ElasticAdmission: &core.ElasticAdmissionConfig{
			HotOccupancy:  0.80,
			Hysteresis:    0.15,
			Window:        dur / 10,
			MinDuration:   dur / 20,
			ShiftFraction: 0.5,
		},
		PrePaging: &core.PrePagingConfig{
			MinRegisteredFrac: 0.90,
			Hysteresis:        0.05,
			MinDuration:       0,
		},
	}
}
