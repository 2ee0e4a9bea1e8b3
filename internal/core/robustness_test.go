package core

import (
	"reflect"
	"strings"
	"testing"

	"gpluscircles/internal/par/partest"
)

func TestMeasureRobustnessAllSeedsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed rerun in -short mode")
	}
	res, err := MeasureRobustness(SuiteOptions{
		Scale:             0.25,
		Seed:              3,
		DistanceSources:   12,
		ClusteringSamples: 200,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 || len(res.HeldPerSeed) != 3 {
		t.Fatalf("seeds evaluated: %v", res.Seeds)
	}
	// Allow at most one flaky claim across all seeds — the reproduction
	// must not hinge on a lucky seed.
	totalFailures := 0
	for _, c := range res.FailuresByClaim {
		totalFailures += c
	}
	if totalFailures > 1 {
		t.Errorf("claims failed %d times across seeds: %v", totalFailures, res.FailuresByClaim)
	}
}

// TestMeasureRobustnessParallelMatchesSerial fans the per-seed
// scorecards out at several GOMAXPROCS values and demands the result — and its
// rendered report section — be byte-identical to the serial run. This
// is the fan-out's correctness contract: parallelism must never show up
// in the output.
func TestMeasureRobustnessParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed rerun in -short mode")
	}
	opts := SuiteOptions{
		Scale:             0.2,
		Seed:              5,
		DistanceSources:   8,
		ClusteringSamples: 120,
	}
	const seeds = 4
	partest.GOMAXPROCS(t, 1)
	serial, err := MeasureRobustness(opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, seeds, seeds + 3} {
		partest.GOMAXPROCS(t, workers)
		parallel, err := MeasureRobustness(opts, seeds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: result diverged from serial:\nserial:   %+v\nparallel: %+v",
				workers, serial, parallel)
		}
		var wantText, gotText strings.Builder
		if err := renderRobustness(serial, opts.Scale, &wantText); err != nil {
			t.Fatal(err)
		}
		if err := renderRobustness(parallel, opts.Scale, &gotText); err != nil {
			t.Fatal(err)
		}
		if wantText.String() != gotText.String() {
			t.Errorf("workers=%d: rendered section diverged from serial:\n--- serial\n%s\n--- parallel\n%s",
				workers, wantText.String(), gotText.String())
		}
	}
}

func TestRobustnessExperimentRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed rerun in -short mode")
	}
	s := testSuite()
	e, err := ExperimentByID("robustness")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Run(s, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Claims held") {
		t.Error("robustness output incomplete")
	}
}
