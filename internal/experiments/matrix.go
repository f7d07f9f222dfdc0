package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
)

// Axis is the parameter set every population-scale matrix (E9–E11, E13,
// E14) shares, and the one place its rules are checked. Each matrix type
// embeds it and adds only its own knobs.
type Axis struct {
	// Populations is the MN-count axis: strictly ascending and positive.
	Populations []int
	// Duration is the virtual span of each scenario (scaled by
	// Options.TimeScale like every experiment); fault windows and
	// sampling cadences are fractions of it.
	Duration time.Duration
	// Spec is the population mix; every cell runs the same spec so
	// differences isolate scheme, scale and policy.
	Spec fleet.Spec
}

// Validate rejects a degenerate axis before any scenario runs. The
// population axis must be strictly ascending and positive: duplicates
// used to silently double the run time, and an unsorted axis rendered
// tables whose rows contradicted their own "vs population" framing.
func (a Axis) Validate() error {
	if len(a.Populations) == 0 {
		return fmt.Errorf("%w: matrix has no populations", ErrBadOptions)
	}
	prev := 0
	for _, n := range a.Populations {
		switch {
		case n <= 0:
			return fmt.Errorf("%w: population %d (must be > 0)", ErrBadOptions, n)
		case n == prev:
			return fmt.Errorf("%w: duplicate population %d", ErrBadOptions, n)
		case n < prev:
			return fmt.Errorf("%w: populations must be ascending (%d after %d)", ErrBadOptions, n, prev)
		}
		prev = n
	}
	if a.Duration <= 0 {
		return fmt.Errorf("%w: matrix duration %v", ErrBadOptions, a.Duration)
	}
	return a.Spec.Validate()
}

// axis reaches the axis of any Matrix, so code holding a registry entry
// can narrow or vary the axis without knowing the matrix type.
func (a *Axis) axis() *Axis { return a }

// validSchemes is the scheme-axis rule of the matrices that compare
// schemes (E9–E11): at least one scheme.
func validSchemes(schemes []core.Scheme) error {
	if len(schemes) == 0 {
		return fmt.Errorf("%w: matrix has no schemes", ErrBadOptions)
	}
	return nil
}

// FaultProfiles is the fault-profile axis of the fault-injecting
// matrices (E11, E13, E14): one row group per named plan. Empty takes
// the matrix's standard profiles.
type FaultProfiles []faults.NamedPlan

// Validate rejects an unnamed profile, a profile without a plan and a
// degenerate plan.
func (ps FaultProfiles) Validate() error {
	for _, np := range ps {
		if np.Name == "" {
			return fmt.Errorf("%w: unnamed fault profile", faults.ErrBadPlan)
		}
		if np.Plan == nil {
			return fmt.Errorf("%w: profile %q has no plan", faults.ErrBadPlan, np.Name)
		}
		if err := np.Plan.Validate(); err != nil {
			return fmt.Errorf("profile %q: %w", np.Name, err)
		}
	}
	return nil
}

// or is the profile axis a matrix runs: the named profiles, or its
// standard ones when none are named.
func (ps FaultProfiles) or(standard func() []faults.NamedPlan) []faults.NamedPlan {
	if len(ps) == 0 {
		return standard()
	}
	return ps
}

// cell is the scenario every matrix cell starts from: one scheme at one
// population on the one-root seed topology, running the axis's mix (a
// private copy per job) for the scaled duration with a per-scenario
// packet arena.
func (a Axis) cell(opt Options, scheme core.Scheme, n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Topology = oneRoot()
	cfg.Duration = opt.scale(a.Duration)
	cfg.NumMNs = n
	spec := a.Spec
	cfg.Fleet = &spec
	cfg.PacketArena = true
	return cfg
}

// defaultAuthCPUCostNS is the modelled CPU spend per MHAE sign/verify
// operation in fault-injecting runs: a keyed-hash over a short
// registration message lands in the low microseconds on period
// hardware, and the exact value is inert anyway — it feeds only the
// mip.auth.cpu_ns accounting column, never packet timing.
const defaultAuthCPUCostNS = 2500

// armFaults injects one fault profile into a cell, with registration
// authentication on as every fault-injecting matrix runs it.
func armFaults(cfg *core.Config, np faults.NamedPlan) {
	cfg.AuthEnabled = true
	cfg.AuthCPUCostNS = defaultAuthCPUCostNS
	cfg.Faults = np.Plan
}

// Matrix is one population-scale experiment's parameter set: a
// *ScaleSweep (E9), *CapacityMatrix (E10), *ResilienceMatrix (E11) or
// *CrowdMatrix (E13, E14).
type Matrix interface {
	Validate() error
	axis() *Axis
	plan(Options) (plan, error)
}

// RunMatrix runs one matrix experiment as its own batch.
//
// The matrices are not part of All: their cost axis is population and
// topology size, not duration, so the E1–E8 suite keeps its bytes and
// scale runs are invoked deliberately (cmd/mmscale, cmd/mmbench, the
// benchmarks and the pinned goldens).
func RunMatrix(opt Options, m Matrix) (*Table, error) {
	opt, p, err := prepare(opt, m)
	if err != nil {
		return nil, err
	}
	return opt.run(p)
}

// prepare normalises the options, validates the matrix and builds its
// plan — dimensioning every population up front — so a degenerate
// matrix or planner config fails before a single scenario runs.
func prepare(opt Options, m Matrix) (Options, plan, error) {
	opt, err := opt.normalized()
	if err != nil {
		return opt, plan{}, err
	}
	if err := m.Validate(); err != nil {
		return opt, plan{}, err
	}
	p, err := m.plan(opt)
	return opt, p, err
}

// Entry is one matrix experiment in the registry: its table ID, the
// full matrix cmd/mmscale runs by default and the reduced matrix
// cmd/mmbench runs.
type Entry struct {
	ID             string
	Default, Suite func() Matrix
}

// Matrices is the registry of matrix experiments, in table order.
func Matrices() []Entry {
	return []Entry{
		{"E9",
			func() Matrix { m := DefaultScaleSweep(); return &m },
			func() Matrix { m := SuiteScaleSweep(); return &m }},
		{"E10",
			func() Matrix { m := DefaultCapacityMatrix(); return &m },
			func() Matrix { m := SuiteCapacityMatrix(); return &m }},
		{"E11",
			func() Matrix { m := DefaultResilienceMatrix(); return &m },
			func() Matrix { m := SuiteResilienceMatrix(); return &m }},
		{"E13",
			func() Matrix { m := DefaultClosedLoopMatrix(); return &m },
			func() Matrix { m := SuiteClosedLoopMatrix(); return &m }},
		{"E14",
			func() Matrix { m := DefaultDegradationMatrix(); return &m },
			func() Matrix { m := SuiteDegradationMatrix(); return &m }},
	}
}
