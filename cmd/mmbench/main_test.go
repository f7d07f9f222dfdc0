package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.02", "-only", "E1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunReplicatedParallel(t *testing.T) {
	if err := run([]string{"-scale", "0.02", "-only", "E1", "-reps", "2", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsDegenerateOptions(t *testing.T) {
	if err := run([]string{"-scale", "0"}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := run([]string{"-scale", "-1"}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if err := run([]string{"-reps", "0"}); err == nil {
		t.Fatal("zero reps accepted")
	}
	if err := run([]string{"-parallel", "0"}); err == nil {
		t.Fatal("zero parallel accepted")
	}
}

func TestRunJSONSummaryRecordsWorkerCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := run([]string{"-only", "E1", "-scale", "0.05",
		"-measureworkers", "3", "-parallel", "2", "-json", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got runSummary
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, raw)
	}
	if got.MeasureWorkers != 3 || got.Parallel != 2 || got.Experiments != 1 {
		t.Fatalf("summary fields wrong: %+v", got)
	}
}

// TestRunMatrixExperiment reaches a matrix experiment past E10 through
// the registry: -only E11 runs the resilience matrix at its suite shape.
func TestRunMatrixExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.02", "-only", "E11"}); err != nil {
		t.Fatal(err)
	}
}
