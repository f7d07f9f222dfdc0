package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/runner"
)

// degradation is E14's policy: graceful degradation measured against
// the cliff on an over-subscribed arena. The cliff twin runs no
// degradation machinery (admission is first-come-first-served until the
// pool empties, video streams at full rate into the congestion,
// recovery registrations burst unpaced); the graceful twin arms
// Config.Degrade (the class-priority admission ladder defers and
// preempts, video steps down on the ladder rungs, and the
// registration-storm breaker paces the anchor's Mobile IP leg).
//
// The claim it pins: under the same overload and the same storm
// schedule, the class-aware ladder keeps conversational admission and
// survival high by spending the cheap classes first, and the breaker
// turns the recovery burst into a paced queue instead of a synchronized
// spike — while the cliff rows shed whatever arrived last, regardless
// of class.
var degradation = crowdPolicy{
	num:      14,
	id:       "E14",
	title:    "Graceful degradation: cliff vs graceful x fault profile (mix %s, dimensioned, auth on)",
	column:   "mode",
	modes:    [2]string{"cliff", "graceful"},
	arm:      func(cfg *core.Config) { cfg.Degrade = e14Degrade() },
	standard: degradationProfiles,
	header: []string{"loss", "survival", "voice-surv", "voice-adm", "ho-adm",
		"deferred", "preempted", "stepdowns", "paced", "t90 recovery"},
	cells: func(r runner.JobResult) []string {
		return []string{
			fmtStatPct(r.LossRate()),
			fmtStatPct(r.Stat(survivalRate)),
			fmtStatPct(r.Stat(classSurvival("crowd-voice"))),
			fmtStatPct(r.Stat(admissionSuccess(
				"tier.admission.class.conversational.admitted",
				"tier.admission.class.conversational.refused"))),
			fmtStatPct(r.Stat(admissionSuccess(
				"tier.admission.handoff.admitted",
				"tier.admission.handoff.refused"))),
			fmtStatI(r.Counter("ctl.degrade.deferred")),
			fmtStatI(r.Counter("ctl.degrade.preempted")),
			fmtStatI(r.Counter("ctl.degrade.video_stepdowns")),
			fmtStatI(r.Counter("ctl.degrade.breaker.paced")),
			t90Recovery(r)}
	},
	notes: func(t *Table) {
		t.AddNote("cliff rows record the same telemetry at the same cadence but attach no policy: every degradation column reads 0 and the pair isolates what planned degradation bought")
		t.AddNote("ladder defaults: occupancy %.2f enters level 1 (defer interactive-and-below, preempt lower-priority sessions for handoffs and voice), %.2f deepens; video rate scales by the level's rung (%s)", 0.70, 0.85, "1, 0.6, 0.35")
		t.AddNote("voice-adm / ho-adm = admitted/(admitted+refused) over conversational-class and handoff admission decisions; the ladder spends data and video to keep both high")
		t.AddNote("paced counts anchor Mobile IP registrations the storm breaker delayed instead of bursting; t90 recovery as in E11")
	},
}

// degradationProfiles are the default E14 fault rows: the bare overload
// (an empty plan — faults armed only for the survival probes, the crowd
// itself is the stressor) and the storm profile from the faults library,
// selected by name so the library stays the single source of truth for
// what a registration storm looks like.
func degradationProfiles() []faults.NamedPlan {
	overload := faults.NamedPlan{Name: "overload", Plan: &faults.Plan{}}
	storm, err := faults.ProfileByName("storm")
	if err != nil {
		// The storm profile is pinned by the faults package's own tests;
		// losing it here degrades the matrix to overload-only rather
		// than failing the whole experiment.
		return []faults.NamedPlan{overload}
	}
	return []faults.NamedPlan{overload, storm}
}

// DegradationSpec is the three-class crowd the ladder ranks: half the
// population carries conversational voice, a third streams video (the
// class the rate-adaptation rungs squeeze), and the rest runs
// interactive data (the first class the ladder defers). Everyone moves
// under the hotspot model, so the whole demand lands on one root's
// subtree and the per-root occupancy the ladder watches actually climbs
// past its thresholds.
func DegradationSpec() fleet.Spec {
	return fleet.Spec{Profiles: []fleet.Profile{
		{Name: "crowd-voice", Share: 50, Mobility: "hotspot", SpeedMPS: 1.4, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Voice: true}},
		{Name: "crowd-video", Share: 30, Mobility: "hotspot", SpeedMPS: 1.0, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Video: true}},
		{Name: "crowd-data", Share: 20, Mobility: "hotspot", SpeedMPS: 1.2, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{DataMeanInterval: 200 * time.Millisecond}},
	}}
}

// e14Degrade is the degradation policy every graceful row arms: the
// library defaults — elevated at 0.70 occupancy, critical at 0.85,
// video rungs [1, 0.6, 0.35], a 400 msg/s registration pacer opening at
// a 32-deep backlog.
func e14Degrade() *core.DegradeConfig {
	l := degrade.DefaultLadderConfig()
	b := degrade.DefaultBreakerConfig()
	return &core.DegradeConfig{Ladder: &l, Breaker: &b}
}

// DefaultDegradationMatrix is the full E14 matrix cmd/mmscale -degrade
// runs: two crowd sizes, both default profiles, cliff vs graceful. The
// populations sit above the hot subtree's floor budget on purpose —
// E14 is about behaviour past the knee, not at it.
func DefaultDegradationMatrix() CrowdMatrix {
	return CrowdMatrix{
		Axis: Axis{
			Populations: []int{500, 800},
			Duration:    10 * time.Second,
			Spec:        DegradationSpec(),
		},
		policy: &degradation,
	}
}

// SuiteDegradationMatrix is the reduced E14 matrix mmbench and the
// benchmark harness run: one crowd, the storm profile only.
func SuiteDegradationMatrix() CrowdMatrix {
	m := DefaultDegradationMatrix()
	m.Populations = []int{500}
	m.Profiles = degradationProfiles()[1:]
	return m
}

// classSurvival extracts the end-of-run registered fraction of one
// fleet profile from the per-profile survival counters the fault probe
// registers.
func classSurvival(profile string) func(*core.Result) float64 {
	pop := "fault.survival." + profile + ".population"
	surv := "fault.survival." + profile + ".survivors"
	return func(res *core.Result) float64 {
		p := res.Registry.Counter(pop).Value()
		if p == 0 {
			return 0
		}
		return float64(res.Registry.Counter(surv).Value()) / float64(p)
	}
}

// admissionSuccess extracts admitted/(admitted+refused) from a pair of
// partition counters; no decisions at all reads as 0.
func admissionSuccess(admitted, refused string) func(*core.Result) float64 {
	return func(res *core.Result) float64 {
		a := res.Registry.Counter(admitted).Value()
		r := res.Registry.Counter(refused).Value()
		if a+r == 0 {
			return 0
		}
		return float64(a) / float64(a+r)
	}
}
