package main

// metricDef is one reported metric. Bound is the share of the parent's
// median an end-to-end metric may worsen by before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees, reported with --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
	{"sim_loss_pct", "%", "lower", 0.25},
	{"sim_delay_mean_ms", "ms", "lower", 0.05},
	{"sim_signaling_kb", "kB", "lower", 0.25},
}

// setupTimings are the set-up layer calls the traced run times directly.
var setupTimings = []string{"capacity.new_ms", "topology.build_ms", "fleet.assign_ms", "core.build_ms", "metrics.render_ms"}

// probeMaxima are the engine gauges read from the Obs series, by series.
var probeMaxima = []struct{ metric, series string }{
	{"simtime.heap_depth_max", "sched.heap_depth"},
	{"simtime.tick_groups", "sched.tick_groups"},
	{"simtime.delay_lines", "sched.delay_lines"},
	{"packet.arena_high_water", "arena.high_water"},
}

// everyOp are the per-layer figures every op records; the traced run
// reports their medians from its untraced half.
var everyOp = []metricDef{
	{"netsim.sent", "count", "higher", 0},
	{"netsim.delivered", "count", "higher", 0},
	{"protocol.handoffs", "count", "lower", 0},
	{"protocol.signaling_msgs", "count", "lower", 0},
	{"multitier.location_msgs", "count", "lower", 0},
	{"multitier.handoff_rejects", "count", "lower", 0},
	{"rsmc.operations", "count", "lower", 0},
	{"mobileip.registration_retries", "count", "lower", 0},
	{"mobileip.ha_intercepts", "count", "lower", 0},
	{"cellularip.route_updates", "count", "lower", 0},
	{"auth.checks", "count", "lower", 0},
	{"admission.success_ratio", "ratio", "higher", 0},
	{"obs.events", "count", "lower", 0},
	{"obs.dropped", "count", "lower", 0},
	{"ctl.alerts_raised", "count", "lower", 0},
	{"ctl.degrade_deferred", "count", "lower", 0},
	{"ctl.breaker_paced", "count", "lower", 0},
	{"faults.recovered_ratio", "ratio", "higher", 0},
	{"runtime.allocs", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
}

// perLayer lists every metric the traced run (--trace 1) reports.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range setupTimings {
		out = append(out, metricDef{n, "ms", "lower", 0})
	}
	for _, g := range groups {
		out = append(out, metricDef{g + ".cpu_pct", "%", "lower", 0})
	}
	for _, g := range groups {
		out = append(out, metricDef{g + ".alloc_pct", "%", "lower", 0})
	}
	for _, t := range cumTargets {
		out = append(out, metricDef{t.metric + ".cum_pct", "%", "lower", 0})
	}
	for _, p := range probeMaxima {
		out = append(out, metricDef{p.metric, "count", "lower", 0})
	}
	out = append(out,
		metricDef{"core.measure_ms", "ms", "lower", 0},
		metricDef{"core.decide_ms", "ms", "lower", 0})
	for _, r := range dropReasons {
		out = append(out, metricDef{"netsim.drops." + r.String(), "count", "lower", 0})
	}
	out = append(out, everyOp...)
	return append(out, metricDef{"trace.overhead_pct", "%", "lower", 0})
}
