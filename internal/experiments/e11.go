package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/runner"
)

// ResilienceMatrix parameterises E11: the fault-injection matrix that
// measures how each mobility-management scheme survives infrastructure
// failures. Every population runs under every fault profile and every
// scheme with registration authentication armed, so the rows compare
// handoff loss, session survival, signalling load and recovery speed on
// identical deterministic fault schedules.
type ResilienceMatrix struct {
	Axis
	// Schemes are the mobility-management schemes compared in each
	// row group.
	Schemes []core.Scheme
	// Profiles are the fault plans injected; empty takes
	// faults.Profiles() — baseline, root-outage, link-degrade,
	// radio-fade and storm.
	Profiles FaultProfiles
}

// DefaultResilienceMatrix is the full matrix cmd/mmscale -faults runs:
// two populations, every scheme, all standard fault profiles.
func DefaultResilienceMatrix() ResilienceMatrix {
	return ResilienceMatrix{
		Axis: Axis{
			Populations: []int{500, 2000},
			Duration:    10 * time.Second,
			Spec:        fleet.DefaultSpec(),
		},
		Schemes: core.Schemes(),
	}
}

// Validate applies the Axis rules plus a non-empty scheme axis and
// well-formed fault profiles.
func (m ResilienceMatrix) Validate() error {
	if err := m.Axis.Validate(); err != nil {
		return err
	}
	if err := validSchemes(m.Schemes); err != nil {
		return err
	}
	return m.Profiles.Validate()
}

// SuiteResilienceMatrix is the reduced matrix the benchmark harness
// runs: one moderate population, the root-outage profile (the one that
// exercises the full deregister/storm/recover cycle), every scheme.
func SuiteResilienceMatrix() ResilienceMatrix {
	m := DefaultResilienceMatrix()
	m.Populations = []int{200}
	var root faults.NamedPlan
	for _, np := range faults.Profiles() {
		if np.Name == "root-outage" {
			root = np
		}
	}
	m.Profiles = FaultProfiles{root}
	return m
}

// plan lays the jobs out population-major, then profile, then scheme.
// The claim the table pins: the multi-tier architecture localises a
// root outage to one domain and re-registers its population through the
// location-refresh machinery, while plain Mobile IP rides retransmission
// backoff and reattempt timers, and Cellular IP rebuilds soft-state
// caches from data/paging traffic — all three visible as session
// survival, t90 recovery time and signalling load under identical
// deterministic fault schedules.
func (m ResilienceMatrix) plan(opt Options) (plan, error) {
	type meta struct {
		mns     int
		profile string
		scheme  core.Scheme
	}
	var jobs []runner.Job
	var metas []meta
	for _, n := range m.Populations {
		for _, np := range m.Profiles.or(faults.Profiles) {
			for _, scheme := range m.Schemes {
				cfg := m.cell(opt, scheme, n)
				armFaults(&cfg, np)
				jobs = append(jobs, runner.Job{
					Label:  fmt.Sprintf("%s@%d-MNs-%s", scheme, n, np.Name),
					Config: cfg,
				})
				metas = append(metas, meta{n, np.Name, scheme})
			}
		}
	}
	return plan{
		num:  11,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:    "E11",
				Title: fmt.Sprintf("Resilience matrix: fault injection x scheme (mix %s, auth on)", m.Spec.String()),
				Header: []string{"MNs", "profile", "scheme",
					"loss", "mean delay", "survival", "signal/s",
					"t90 recovery", "retry-exhausted", "expired", "shed-fault",
					"auth-cpu(ms)"},
			}
			for i, r := range res {
				mt := metas[i]
				t.AddRow(fmtI(mt.mns), mt.profile, string(mt.scheme),
					fmtStatPct(r.LossRate()),
					fmtStatDur(r.MeanLatency()),
					fmtStatPct(r.Stat(survivalRate)),
					fmtStatF(r.Stat(func(res *core.Result) float64 {
						return float64(res.Summary.SignalingMsgs) / res.Config.Duration.Seconds()
					})),
					t90Recovery(r),
					fmtStatI(r.Counter("mip.registration.retry_exhausted")),
					fmtStatI(r.Counter("mip.registration.expired")),
					fmtStatI(r.Counter("tier.admission.shed_fault")),
					fmtStatF(r.Stat(func(res *core.Result) float64 {
						return float64(res.Registry.Counter("mip.auth.cpu_ns").Value()) / 1e6
					})))
			}
			t.AddNote("survival = fault.session.survivors / population, probed just before the run ends; baseline rows calibrate what the probe reads with no faults injected")
			t.AddNote("t90 recovery = time from station recovery until 90%% of the MNs it deregistered hold a registration again; \"-\" means no outage fired or the storm never converged inside the run")
			t.AddNote("reason-coded drops: shed_fault = admission refused because the domain head was down; retry-exhausted / expired are the Mobile IP registration lifecycle counters")
			t.AddNote("auth-cpu = modelled MHAE sign/verify CPU spend (mip.auth.cpu_ns); zero for Cellular IP, which carries no Mobile IP leg")
			return t, nil
		},
	}, nil
}

// survivalRate is the end-of-run registered fraction of one run.
func survivalRate(res *core.Result) float64 {
	pop := res.Registry.Counter("fault.session.population").Value()
	if pop == 0 {
		return 0
	}
	return float64(res.Registry.Counter("fault.session.survivors").Value()) / float64(pop)
}

// t90Recovery renders the recovery-time sample of the first replication:
// the virtual seconds from station-up until 90% of the affected MNs were
// re-registered, "-" when no tracker converged (no outage, or the storm
// outlived the run).
func t90Recovery(r runner.JobResult) string {
	first := r.First()
	if first == nil {
		return ""
	}
	s := first.Registry.Sample("fault.recovery.t90_s")
	if s.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", s.Mean())
}
