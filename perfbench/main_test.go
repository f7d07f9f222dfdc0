package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark under test starts its child processes from os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program:\nfile    %+v\nprogram %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the program:\nfile    %+v\nprogram %+v", bf.PerLayer, perLayer())
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workloads %v differ from the program's", names)
			break
		}
	}
}

// runBench runs the benchmark in-process on scaled-down inputs and returns
// its output lines and parsed result.
func runBench(t *testing.T, workload, seed, trace string) ([]string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0", "--trace", trace, "--small"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return lines, res
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced
// and requires exactly the metrics BENCHMARK.json lists, each with its
// unit, from a correct run; the traced shares must each sum to 100%.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": bf.EndToEnd, "1": bf.PerLayer} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				lines, res := runBench(t, w.name, "3", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
					t.Fatalf("result %+v\n%s", res, strings.Join(lines, "\n"))
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.Name, got, d.Unit)
					}
				}
				if !strings.HasPrefix(lines[0], "provenance {") {
					t.Errorf("first line is not the provenance stamp: %q", lines[0])
				}
				if trace == "1" {
					for _, suffix := range []string{".cpu_pct", ".alloc_pct"} {
						var sum float64
						for _, g := range groups {
							sum += res.Metrics[g+suffix].Value
						}
						if math.Abs(sum-100) > 1e-6 {
							t.Errorf("%s shares sum to %v", suffix, sum)
						}
					}
				}
			})
		}
	}
}

func smallOps(t *testing.T, w workload, seed int64, n int) []opResult {
	t.Helper()
	cfgs, err := loadConfigs(w, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	var ops []opResult
	for i := 0; i < n; i++ {
		op, _ := runOp(w, cfgs)
		ops = append(ops, op)
	}
	return ops
}

func TestInjectedDigestMismatchCountsAsFailed(t *testing.T) {
	w, _ := workloadByName("schemes")
	ops := smallOps(t, w, 5, 3)
	if got := tally(ops); got != 0 {
		t.Fatalf("clean ops: %d failed: %+v", got, ops)
	}
	ops[2].Digest = strings.Repeat("0", 64)
	if got := tally(ops); got != 1 {
		t.Fatalf("one corrupted digest: %d failed, want 1", got)
	}
}

func TestSeedChangesDigestsNotMetricNames(t *testing.T) {
	for _, w := range workloads {
		a, b := smallOps(t, w, 1, 1)[0], smallOps(t, w, 2, 1)[0]
		if a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, a.Digest)
		}
		if !reflect.DeepEqual(valueNames(a), valueNames(b)) {
			t.Errorf("%s: metric names differ across seeds:\n%v\n%v", w.name, valueNames(a), valueNames(b))
		}
	}
}

func valueNames(op opResult) []string {
	var names []string
	for n := range op.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestConservationCountsDuplicateCopies(t *testing.T) {
	w := workload{name: "synthetic"}
	result := func(scheme core.Scheme, sent, delivered, dropped, copies uint64) *core.Result {
		reg := metrics.NewRegistry()
		if copies > 0 {
			reg.Counter("tier.page_broadcasts").Add(copies)
		}
		return &core.Result{
			Config:   core.Config{Scheme: scheme},
			Registry: reg,
			Summary:  core.Summary{Sent: sent, Delivered: delivered, Dropped: dropped},
		}
	}
	for _, tc := range []struct {
		name string
		res  *core.Result
		ok   bool
	}{
		{"balanced", result(core.SchemeMobileIP, 100, 90, 10, 0), true},
		{"extra drop", result(core.SchemeMobileIP, 100, 90, 11, 0), false},
		{"flood copies died", result(core.SchemeMultiTier, 100, 90, 15, 5), true},
		{"more deaths than copies", result(core.SchemeMultiTier, 100, 90, 16, 5), false},
		{"semisoft clone drops", result(core.SchemeCellularIPSemisoft, 100, 99, 7, 0), true},
		{"delivered beyond sent", result(core.SchemeCellularIPSemisoft, 100, 101, 0, 0), false},
	} {
		if got := len(check(w, []*core.Result{tc.res})) == 0; got != tc.ok {
			t.Errorf("%s: passes=%v, want %v", tc.name, got, tc.ok)
		}
	}
}

func TestGroupOfAttributesLeaves(t *testing.T) {
	if got := groupOf([]string{"math/rand.(*rngSource).Seed", "repro/internal/simtime.(*Rand).source"}); got != "rng" {
		t.Errorf("rng seeding grouped as %q", got)
	}
	if got := groupOf([]string{"crypto/internal/fips140/sha256.blockAMD64", "crypto/hmac.(*hmac).Write", "repro/internal/auth.(*Authenticator).mac"}); got != "auth" {
		t.Errorf("hmac under auth grouped as %q", got)
	}
	if got := groupOf([]string{"crypto/sha256.(*Digest).Write", "main.digest"}); got != "other" {
		t.Errorf("harness hashing grouped as %q", got)
	}
	if got := groupOf([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}); got != "runtime.gc" {
		t.Errorf("mark work grouped as %q", got)
	}
	if got := groupOf([]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/netsim.(*Network).getFlight"}); got != "runtime.malloc" {
		t.Errorf("allocation grouped as %q", got)
	}
	if got := groupOf([]string{"repro/internal/simtime.(*delayLine).fire"}); got != "simtime.lines" {
		t.Errorf("delay line grouped as %q", got)
	}
}
