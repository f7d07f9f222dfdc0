package experiments

import (
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/runner"
)

// CrowdMatrix parameterises the paired-policy crowd experiments, E13
// (open vs closed QoE feedback loop) and E14 (cliff vs graceful
// degradation). Every population runs a dimensioned multi-tier arena
// under every fault profile twice — once bare and once with the
// experiment's policy armed — so each row pair isolates what the policy
// bought on identical deterministic schedules. The policy is set by
// DefaultClosedLoopMatrix or DefaultDegradationMatrix; start from one.
//
// Every cell runs multitier-rsmc: only it has the per-root
// admission budgets, per-cell admission sessions and root anchors the
// policies act on. The capacity planner dimensions each population, so
// crowd sizes map to multi-root arenas.
type CrowdMatrix struct {
	Axis
	// Profiles are the fault plans injected; empty takes the policy's
	// standard profiles.
	Profiles FaultProfiles
	// Planner dimensions the arena per population (zero value = urban
	// defaults, like E10).
	Planner capacity.PlannerConfig
	// SampleInterval is the telemetry cadence both twins record at; the
	// armed policy also decides on it. Zero takes Duration/100.
	SampleInterval time.Duration

	policy *crowdPolicy
}

// crowdPolicy is what tells E13 from E14: the policy the armed twin
// runs and the table that reads each pair.
type crowdPolicy struct {
	num   int
	id    string
	title string // format taking the mix
	// column heads the twin column; modes are the bare and armed twins.
	column string
	modes  [2]string
	arm    func(*core.Config)
	// standard are the fault rows an empty Profiles axis takes.
	standard func() []faults.NamedPlan
	// header and cells are the metric columns after MNs, profile and twin.
	header []string
	cells  func(runner.JobResult) []string
	notes  func(*Table)
}

// Validate applies the Axis rules plus the crowd's own: a policy,
// well-formed fault profiles and a non-negative cadence.
func (m CrowdMatrix) Validate() error {
	if m.policy == nil {
		return fmt.Errorf("%w: crowd matrix has no policy (start from DefaultClosedLoopMatrix or DefaultDegradationMatrix)", ErrBadOptions)
	}
	if err := m.Axis.Validate(); err != nil {
		return err
	}
	if err := m.Profiles.Validate(); err != nil {
		return err
	}
	if m.SampleInterval < 0 {
		return fmt.Errorf("%w: negative sample interval %v", ErrBadOptions, m.SampleInterval)
	}
	return nil
}

func (m CrowdMatrix) sample() time.Duration {
	if m.SampleInterval > 0 {
		return m.SampleInterval
	}
	return m.Duration / 100
}

// cell assembles one crowd cell: a dimensioned arena with faults and
// telemetry armed, plus the policy on the armed twin. Both twins pin
// their own Obs (the runner leaves a pinned Obs alone), so they record
// identically and differ only in the policy.
func (m CrowdMatrix) cell(opt Options, dim *capacity.Plan, n int, np faults.NamedPlan, armed bool) core.Config {
	cfg := m.Axis.cell(opt, core.SchemeMultiTier, n)
	armFaults(&cfg, np)
	cfg.Capacity = dim
	// The cadence scales with the run the way fault windows do — as a
	// fraction of the (scaled) duration, not through opt.scale and its
	// 2 s floor, which would leave a scaled-down suite with two samples.
	cfg.Obs = &obs.Config{
		Capacity:       1 << 17,
		SampleInterval: time.Duration(float64(m.sample()) * float64(cfg.Duration) / float64(m.Duration)),
	}
	if armed {
		m.policy.arm(&cfg)
	}
	return cfg
}

// plan dimensions every population up front (fail fast, like E10) and
// lays the twins out adjacent per (population, profile) so the table
// reads as before/after pairs.
func (m CrowdMatrix) plan(opt Options) (plan, error) {
	p := m.policy
	type meta struct {
		mns           int
		profile, mode string
	}
	var jobs []runner.Job
	var metas []meta
	for _, n := range m.Populations {
		dim, err := capacity.New(n, m.Spec, m.Planner)
		if err != nil {
			return plan{}, fmt.Errorf("dimensioning %d MNs: %w", n, err)
		}
		for _, np := range m.Profiles.or(p.standard) {
			for i, mode := range p.modes {
				jobs = append(jobs, runner.Job{
					Label:  fmt.Sprintf("%s@%d-MNs-%s-%s", core.SchemeMultiTier, n, np.Name, mode),
					Config: m.cell(opt, dim, n, np, i == 1),
				})
				metas = append(metas, meta{n, np.Name, mode})
			}
		}
	}
	return plan{
		num:  p.num,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     p.id,
				Title:  fmt.Sprintf(p.title, m.Spec.String()),
				Header: append([]string{"MNs", "profile", p.column}, p.header...),
			}
			for i, r := range res {
				mt := metas[i]
				t.AddRow(append([]string{fmtI(mt.mns), mt.profile, mt.mode}, p.cells(r)...)...)
			}
			p.notes(t)
			return t, nil
		},
	}, nil
}
