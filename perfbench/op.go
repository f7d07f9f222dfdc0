package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// loadConfigs generates a workload's scenario list from the seed. Every
// run measures inline (MeasureWorkers=1) unless a check fans it out.
func loadConfigs(w workload, seed int64, small bool) ([]core.Config, error) {
	cfgs, err := w.build(seed, small)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return withWorkers(cfgs, 1), nil
}

// opResult is one op: one pass over the scenario list. Values holds every
// per-op figure by metric name; Problems lists the output checks the op
// failed (an op with any problem counts as failed).
type opResult struct {
	Values    map[string]float64 `json:"values"`
	Digest    string             `json:"digest"`
	Summaries []string           `json:"summaries"`
	Problems  []string           `json:"problems,omitempty"`
}

// failed reports whether the op broke any check, including a digest that
// differs from the run's first op (same seed, so it must be identical).
func (r opResult) failed(first opResult) bool {
	return len(r.Problems) > 0 || r.Digest != first.Digest
}

// tally counts the failed ops of one run; ops[0] is the digest reference.
func tally(ops []opResult) (failed int) {
	for _, op := range ops {
		if op.failed(ops[0]) {
			failed++
		}
	}
	return failed
}

// hostSample is the process-wide cost counters an op is timed between.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
	pauseNS uint64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return hostSample{
		wall:    time.Now(),
		cpu:     cpu,
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS, so each op reads its own peak. Where the kernel refuses,
// the mark keeps the process peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB, or the
// process peak from getrusage where /proc is unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			f := strings.Fields(line) // "VmHWM:  103784 kB"
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runOp runs the list back to back on this goroutine, timing only the
// core.Run calls, then checks and condenses the results. The returned
// results stay available for callers that read more from them.
func runOp(w workload, cfgs []core.Config) (opResult, []*core.Result) {
	debug.FreeOSMemory()
	resetPeakRSS()
	before := sampleHost()
	results := make([]*core.Result, len(cfgs))
	var errs []string
	for i, cfg := range cfgs {
		res, err := core.Run(cfg)
		if err != nil {
			errs = append(errs, fmt.Sprintf("run %d (%s): %v", i, cfg.Scheme, err))
			continue
		}
		results[i] = res
	}
	after := sampleHost()

	op := opResult{Values: map[string]float64{
		"peak_rss_mb":         peakRSSMB(),
		"wall_s":              after.wall.Sub(before.wall).Seconds(),
		"cpu_s":               (after.cpu - before.cpu).Seconds(),
		"alloc_mb":            float64(after.alloc-before.alloc) / 1e6,
		"runtime.allocs":      float64(after.mallocs - before.mallocs),
		"runtime.gc_cycles":   float64(after.gcs - before.gcs),
		"runtime.gc_pause_ms": float64(after.pauseNS-before.pauseNS) / 1e6,
	}, Problems: errs}
	if len(errs) > 0 {
		return op, results
	}
	op.Digest, op.Summaries = digest(results)
	op.Problems = append(op.Problems, check(w, results)...)
	for name, v := range modelled(results) {
		op.Values[name] = v
	}
	for name, v := range layerCounts(results) {
		op.Values[name] = v
	}
	return op, results
}

// digest hashes every run's Summary line and rendered registry, in list
// order: two ops agree on it exactly when they simulated the same thing.
func digest(results []*core.Result) (string, []string) {
	h := sha256.New()
	sums := make([]string, len(results))
	for i, res := range results {
		sums[i] = res.Summary.String()
		fmt.Fprintf(h, "%s\n%s", sums[i], res.Registry.Render())
	}
	return hex.EncodeToString(h.Sum(nil)), sums
}

// check applies the per-run output laws: packet conservation, and for
// workloads that arm no control or fault subsystem, no residue of either
// in the registry.
//
// Conservation: delivered <= sent on every run, and delivered + dropped
// <= sent + copies, where copies are the duplicate packets the scheme
// made. A copy is a packet of its own whose death counts as a drop, so
// it can add one fate beyond sent. Multi-tier page floods report their
// copies (tier.page_broadcasts); semisoft Cellular IP does not report
// its bicast clones, so only the first law applies to it.
func check(w workload, results []*core.Result) []string {
	var problems []string
	for i, res := range results {
		s := res.Summary
		if s.Delivered > s.Sent {
			problems = append(problems, fmt.Sprintf("run %d (%s): conservation broken: delivered %d > sent %d",
				i, res.Config.Scheme, s.Delivered, s.Sent))
		}
		if res.Config.Scheme != core.SchemeCellularIPSemisoft {
			copies := uint64(newCounters(res.Registry).get("tier.page_broadcasts"))
			if s.Delivered+s.Dropped > s.Sent+copies {
				problems = append(problems, fmt.Sprintf("run %d (%s): conservation broken: delivered %d + dropped %d > sent %d + copies %d",
					i, res.Config.Scheme, s.Delivered, s.Dropped, s.Sent, copies))
			}
		}
		if !w.nilResidue {
			continue
		}
		for _, name := range res.Registry.Names() {
			if strings.HasPrefix(name, "ctl.") || strings.HasPrefix(name, "fault.") {
				problems = append(problems, fmt.Sprintf("run %d: residue metric %q", i, name))
				break
			}
		}
	}
	return problems
}

// modelled aggregates the simulated outputs over the op's runs: pooled
// loss, per-run mean latencies averaged, and total signalling volume.
func modelled(results []*core.Result) map[string]float64 {
	var sent, delivered, sigBytes uint64
	var mean, p95 time.Duration
	for _, res := range results {
		s := res.Summary
		sent += s.Sent
		delivered += s.Delivered
		sigBytes += s.SignalingBytes
		mean += s.MeanLatency
		p95 += s.P95Latency
	}
	loss := 0.0
	if sent > 0 && delivered < sent {
		loss = 100 * (1 - float64(delivered)/float64(sent))
	}
	n := float64(len(results))
	return map[string]float64{
		"sim_loss_pct":      loss,
		"sim_delay_mean_ms": float64(mean) / n / 1e6,
		"sim_delay_p95_ms":  float64(p95) / n / 1e6,
		"sim_signaling_kb":  float64(sigBytes) / 1e3,
	}
}

// counters reads registry counters without creating names that a run
// never registered.
type counters struct {
	reg  *metrics.Registry
	have map[string]bool
}

func newCounters(reg *metrics.Registry) counters {
	have := map[string]bool{}
	for _, n := range reg.Names() {
		have[n] = true
	}
	return counters{reg, have}
}

func (c counters) get(names ...string) float64 {
	var total uint64
	for _, n := range names {
		if c.have[n] {
			total += c.reg.Counter(n).Value()
		}
	}
	return float64(total)
}

// matching sums every counter named prefix<anything>suffix, such as the
// per-domain rsmc.<i>.operations family.
func (c counters) matching(prefix, suffix string) float64 {
	var names []string
	for n := range c.have {
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			names = append(names, n)
		}
	}
	return c.get(names...)
}

// dropReasons are the packet-drop causes reported one counter each.
var dropReasons = []metrics.DropReason{
	metrics.DropQueueFull, metrics.DropLinkLoss, metrics.DropNoRoute, metrics.DropTTL,
	metrics.DropHandoff, metrics.DropStale, metrics.DropAdmission, metrics.DropAuth,
	metrics.DropBSDown, metrics.DropFault, metrics.DropPreempted,
}

// layerCounts sums the per-layer work counters over the op's runs. They
// are deterministic per seed.
func layerCounts(results []*core.Result) map[string]float64 {
	out := map[string]float64{}
	add := func(name string, v float64) { out[name] += v }
	var admitted, shed, affected, recovered float64
	for _, res := range results {
		c := newCounters(res.Registry)
		s := res.Summary
		add("netsim.sent", float64(s.Sent))
		add("netsim.delivered", float64(s.Delivered))
		acct := res.Registry.Account("data.flows")
		for _, r := range dropReasons {
			add("netsim.drops."+r.String(), float64(acct.Drops[r]))
		}
		add("protocol.handoffs", float64(s.Handoffs))
		add("protocol.signaling_msgs", float64(s.SignalingMsgs))
		add("multitier.location_msgs", c.get("tier.location_msgs"))
		add("multitier.handoff_rejects", c.get("tier.handoff.rejects"))
		add("rsmc.operations", c.matching("rsmc.", ".operations"))
		add("mobileip.registration_retries", c.get("mip.registration.retries"))
		add("mobileip.ha_intercepts", c.get("mip.ha.intercepts"))
		add("cellularip.route_updates", c.get("cip.route_updates"))
		add("auth.checks", c.get("mip.ha.auth_checks")+c.matching("rsmc.", ".auth_checks"))
		admitted += c.get("tier.admission.admitted")
		shed += c.get("tier.admission.shed_capacity", "tier.admission.shed_policy", "tier.admission.shed_fault")
		add("obs.events", float64(len(res.Trace.Events()))) // nil Trace reads as empty
		add("obs.dropped", float64(res.Trace.Dropped()))
		add("ctl.alerts_raised", c.get("ctl.alerts.raised"))
		add("ctl.degrade_deferred", c.get("ctl.degrade.deferred"))
		add("ctl.breaker_paced", c.get("ctl.degrade.breaker.paced"))
		affected += c.get("fault.recovery.affected")
		recovered += c.get("fault.recovery.recovered")
	}
	out["admission.success_ratio"] = ratio(admitted, admitted+shed)
	out["faults.recovered_ratio"] = ratio(recovered, affected)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
