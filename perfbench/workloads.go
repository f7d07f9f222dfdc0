package main

import (
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/topology"
)

// workload is one benchmark input set. build turns the seed into the
// scenario list one op runs back to back; small shrinks every size so
// the benchmark's own tests finish in seconds.
type workload struct {
	name string
	// parallelCheck runs the list once per benchmark run with
	// MeasureWorkers=2 and requires the sequential digest.
	parallelCheck bool
	// nilResidue requires that no run's registry carries a control or
	// fault metric: the workload arms neither subsystem.
	nilResidue bool
	build      func(seed int64, small bool) ([]core.Config, error)
}

var workloads = []workload{
	{name: "scale10k", parallelCheck: true, nilResidue: true, build: scale10k},
	{name: "schemes", nilResidue: true, build: schemes},
	{name: "storm", parallelCheck: true, build: storm},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// oneRoot is the fixed one-root arena every scheme is defined on.
func oneRoot() topology.Config {
	cfg := topology.DefaultConfig()
	cfg.Roots = 1
	return cfg
}

// scale10k is the E9 headline cell: the default mixed fleet at 10,000
// MNs under the multi-tier scheme with a per-scenario packet arena.
// Population set-up and per-MN periodic work dominate it.
func scale10k(seed int64, small bool) ([]core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scheme = core.SchemeMultiTier
	cfg.Topology = oneRoot()
	cfg.Duration = 2 * time.Second
	cfg.NumMNs = 10000
	if small {
		cfg.Duration = time.Second
		cfg.NumMNs = 300
	}
	spec := fleet.DefaultSpec()
	cfg.Fleet = &spec
	cfg.PacketArena = true
	return []core.Config{cfg}, nil
}

// schemes runs one multimedia shuttle scenario under each of the four
// schemes. Per-packet forwarding and handoff signalling dominate; the
// packets come from the process-global pool.
func schemes(seed int64, small bool) ([]core.Config, error) {
	var out []core.Config
	for _, scheme := range core.Schemes() {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Scheme = scheme
		cfg.NumMNs = 32
		cfg.Duration = 60 * time.Second
		if small {
			cfg.NumMNs = 4
			cfg.Duration = 5 * time.Second
		}
		cfg.Mobility = core.MobilityShuttleDomains
		cfg.SpeedMPS = 20
		cfg.Traffic = core.TrafficConfig{Voice: true, Video: true, DataMeanInterval: 200 * time.Millisecond}
		cfg.Shadowing = true
		cfg.AuthEnabled = true
		out = append(out, cfg)
	}
	return out, nil
}

// storm is the control-plane workload: the E14 three-class crowd on a
// dimensioned arena through the storm fault profile, with the E13
// control policy and the E14 degradation ladder and breaker armed.
func storm(seed int64, small bool) ([]core.Config, error) {
	n, dur := 800, 10*time.Second
	if small {
		n, dur = 150, 2*time.Second
	}
	spec := experiments.DegradationSpec()
	dim, err := capacity.New(n, spec, capacity.PlannerConfig{})
	if err != nil {
		return nil, fmt.Errorf("dimensioning %d MNs: %w", n, err)
	}
	profile, err := faults.ProfileByName("storm")
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scheme = core.SchemeMultiTier
	cfg.Topology = oneRoot()
	cfg.Duration = dur
	cfg.NumMNs = n
	cfg.Fleet = &spec
	cfg.PacketArena = true
	cfg.AuthEnabled = true
	cfg.AuthCPUCostNS = 2500
	cfg.Capacity = dim
	cfg.Faults = profile.Plan
	cfg.Obs = &obs.Config{Capacity: 1 << 17, SampleInterval: dur / 100}
	cfg.Control = &core.ControlConfig{
		ElasticAdmission: &core.ElasticAdmissionConfig{
			HotOccupancy:  0.80,
			Hysteresis:    0.15,
			Window:        dur / 10,
			MinDuration:   dur / 20,
			ShiftFraction: 0.5,
		},
		PrePaging: &core.PrePagingConfig{MinRegisteredFrac: 0.90, Hysteresis: 0.05},
	}
	ladder := degrade.DefaultLadderConfig()
	breaker := degrade.DefaultBreakerConfig()
	cfg.Degrade = &core.DegradeConfig{Ladder: &ladder, Breaker: &breaker}
	return []core.Config{cfg}, nil
}

// withDuration copies the list with every run cut to d: the build-only
// pass that times scenario set-up.
func withDuration(cfgs []core.Config, d time.Duration) []core.Config {
	out := append([]core.Config(nil), cfgs...)
	for i := range out {
		out[i].Duration = d
	}
	return out
}

// withWorkers copies the list with the measurement phase fanned out.
func withWorkers(cfgs []core.Config, n int) []core.Config {
	out := append([]core.Config(nil), cfgs...)
	for i := range out {
		out[i].MeasureWorkers = n
	}
	return out
}

// tracedSample is the Obs cadence the traced run arms where a workload
// records no telemetry of its own.
const tracedSample = 100 * time.Millisecond

// withObs copies the list with sampling armed on every run that has none,
// so the traced run can read the engine probes and the measure/decide
// wall split.
func withObs(cfgs []core.Config) []core.Config {
	out := append([]core.Config(nil), cfgs...)
	for i := range out {
		if out[i].Obs == nil {
			out[i].Obs = &obs.Config{SampleInterval: tracedSample}
		}
	}
	return out
}
