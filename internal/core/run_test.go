package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpluscircles/internal/obs"
)

func runTestOptions() SuiteOptions {
	return SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50}
}

// cancelOnFirstWrite cancels its context on the first byte written, so a
// cancellation lands deterministically while the first experiment is in
// flight (the header write precedes the experiment body).
type cancelOnFirstWrite struct {
	buf    bytes.Buffer
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelOnFirstWrite) Write(p []byte) (int, error) {
	if !c.fired {
		c.fired = true
		c.cancel()
	}
	return c.buf.Write(p)
}

// TestRunAllCtxCancelMidRun: cancelling during the first experiment must
// let that experiment finish (experiments are the atomic unit), emit its
// complete section, and then abort with the wrapped ctx error before the
// second section starts.
func TestRunAllCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnFirstWrite{cancel: cancel}

	opts := runTestOptions()
	opts.Recorder = obs.NewRecorder()
	s := NewSuite(opts)

	err := s.RunAllCtx(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out := w.buf.String()
	if !strings.Contains(out, "[table2]") {
		t.Error("completed first section missing from partial output")
	}
	if strings.Contains(out, "[table3]") {
		t.Error("second section header written after cancellation")
	}

	// The partial run still yields a coherent manifest: a failed run span
	// and one completed experiment span for the section that ran.
	m := opts.Recorder.Manifest(obs.Meta{Tool: "test", Seed: 5, Partial: true, Err: err.Error()})
	runs := m.SpansNamed("run")
	if len(runs) != 1 || runs[0].Err == "" {
		t.Errorf("run span = %+v, want one failed span", runs)
	}
	exps := m.SpansNamed("experiment")
	if len(exps) != 1 || exps[0].Attrs["id"] != "table2" {
		t.Errorf("experiment spans = %+v, want exactly table2", exps)
	}
	if exps[0].Attrs["alloc_bytes_approx"] == "" {
		t.Error("experiment span missing alloc delta attr")
	}
}

// TestRunAllParallelCtxCancelled: an already-cancelled context stops the
// parallel engine within one worker batch — no experiment bodies run, the
// error wraps context.Canceled, and no worker goroutines leak.
func TestRunAllParallelCtxCancelled(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := NewSuite(runTestOptions()).RunAllParallelCtx(ctx, &buf, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(buf.String(), "[table2]") {
		t.Error("emission did not reach the first (cancelled) section header")
	}
	if strings.Contains(buf.String(), "Statistical comparison") {
		t.Error("experiment body ran under a pre-cancelled context")
	}

	// Workers are joined before RunAllParallelCtx returns; give the
	// runtime a moment to retire exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, got)
	}
}

// TestRunExperimentCtxPreCancelled: a cancelled context refuses to start
// the experiment at all.
func TestRunExperimentCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := ExperimentByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = NewSuite(runTestOptions()).RunExperimentCtx(ctx, e, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("experiment wrote %d bytes under a pre-cancelled context", buf.Len())
	}
}

// TestRunExperimentCtxInstruments runs one real experiment under a
// recorder and checks the wiring end to end: an experiment span with the
// right id, suite stage spans for the data sets it generated, and
// score-function timers observed via the shared context.
func TestRunExperimentCtxInstruments(t *testing.T) {
	opts := runTestOptions()
	opts.Recorder = obs.NewRecorder()
	s := NewSuite(opts)
	e, err := ExperimentByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.RunExperimentCtx(context.Background(), e, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("experiment produced no output")
	}

	m := opts.Recorder.Manifest(obs.Meta{Tool: "test", Seed: 5})
	exps := m.SpansNamed("experiment")
	if len(exps) != 1 || exps[0].Attrs["id"] != "fig6" {
		t.Fatalf("experiment spans = %+v", exps)
	}
	if len(m.SpansNamed("generate")) == 0 {
		t.Error("no generate stage spans recorded")
	}
	found := false
	for name, tm := range m.Metrics.Timers {
		if strings.HasPrefix(name, "score/") && tm.Count > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no score-function timers observed; timers = %v", m.Metrics.Timers)
	}
}

// TestNullAblationManifestCountsRewires runs ablation-null and cohesion
// at scale 0.5 under one recorder and checks that both estimators'
// sampling reaches the run manifest: the rewire counters, all six
// samples (three each), and one sample-batch span per estimator.
func TestNullAblationManifestCountsRewires(t *testing.T) {
	opts := SuiteOptions{Scale: 0.5, Seed: 1, Recorder: obs.NewRecorder()}
	s := NewSuite(opts)
	for _, id := range []string{"ablation-null", "cohesion"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunExperimentCtx(context.Background(), e, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	m := opts.Recorder.Manifest(obs.Meta{Tool: "test", Seed: 1})
	counters := m.Metrics.Counters
	attempts, ok := counters["nullmodel.rewire.attempts"]
	if !ok || attempts <= 0 {
		t.Errorf("nullmodel.rewire.attempts = %d (recorded %v), want > 0", attempts, ok)
	}
	if rejects, ok := counters["nullmodel.rewire.rejects"]; !ok || rejects < 0 || rejects > attempts {
		t.Errorf("nullmodel.rewire.rejects = %d (recorded %v), want in [0, %d]", rejects, ok, attempts)
	}
	if got := counters["nullmodel.samples"]; got != 6 {
		t.Errorf("nullmodel.samples = %d, want 6 (three per estimator)", got)
	}
	batches := m.SpansNamed("sample-batch")
	if len(batches) != 2 {
		t.Fatalf("%d sample-batch spans, want one per estimator", len(batches))
	}
	for _, b := range batches {
		if b.Attrs["samples"] != "3" {
			t.Errorf("sample-batch span attrs %v, want samples=3", b.Attrs)
		}
	}
}
