package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// buildManifest produces a representative manifest: nested spans with
// attrs and an error, plus all three metric kinds.
func buildManifest() *Manifest {
	r := NewRecorder()
	r.Counter("nullmodel.rewire.attempts").Add(1200)
	r.Counter("graph.arena.hits").Add(31)
	r.Gauge("core.workers").Set(4)
	r.Timer("score/conductance").Observe(42 * time.Microsecond)

	run := r.StartSpan("run")
	exp := run.StartChild("experiment")
	exp.SetAttr("id", "table3")
	batch := exp.StartChild("sample-batch")
	batch.SetAttr("samples", "32")
	batch.End()
	exp.End()
	fail := run.StartChild("experiment")
	fail.SetAttr("id", "fig5")
	fail.Fail(errors.New("cancelled"))
	fail.End()
	run.End()

	return r.Manifest(Meta{
		Tool:  "circlebench",
		Git:   "c23c737-dirty",
		Start: "2026-08-06T10:00:00Z",
		Seed:  1,
		Options: map[string]string{
			"scale":   "1",
			"workers": "0",
		},
		Partial: true,
		Err:     "context canceled",
	})
}

// TestManifestRoundTrip is the JSONL round-trip contract: write, read
// back, and compare every field including span hierarchy and metrics.
func TestManifestRoundTrip(t *testing.T) {
	m := buildManifest()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}

	// JSONL shape: one JSON object per line, meta first, metrics last.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := 2 + len(m.Spans); len(lines) != want {
		t.Fatalf("manifest has %d lines, want %d", len(lines), want)
	}
	if !strings.Contains(lines[0], `"type":"meta"`) {
		t.Errorf("first line is not meta: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"type":"metrics"`) {
		t.Errorf("last line is not metrics: %s", lines[len(lines)-1])
	}

	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, m.Meta) {
		t.Errorf("meta round-trip mismatch:\ngot  %+v\nwant %+v", got.Meta, m.Meta)
	}
	if !reflect.DeepEqual(got.Spans, m.Spans) {
		t.Errorf("spans round-trip mismatch:\ngot  %+v\nwant %+v", got.Spans, m.Spans)
	}
	if !reflect.DeepEqual(got.Metrics, m.Metrics) {
		t.Errorf("metrics round-trip mismatch:\ngot  %+v\nwant %+v", got.Metrics, m.Metrics)
	}
}

// TestManifestDeterministicBytes re-serializes a parsed manifest and
// demands identical bytes — the manifest diffing story depends on it.
func TestManifestDeterministicBytes(t *testing.T) {
	m := buildManifest()
	var a, b bytes.Buffer
	if err := WriteManifest(&a, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("re-serialized manifest differs:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestManifestPartialPrefix drops the metrics line (a run killed before
// the final flush): the prefix must still parse with its spans intact.
func TestManifestPartialPrefix(t *testing.T) {
	m := buildManifest()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	truncated := strings.Join(lines[:len(lines)-2], "") // drop metrics line
	got, err := ReadManifest(strings.NewReader(truncated))
	if err != nil {
		t.Fatalf("truncated manifest did not parse: %v", err)
	}
	if len(got.Spans) != len(m.Spans) {
		t.Errorf("truncated manifest has %d spans, want %d", len(got.Spans), len(m.Spans))
	}
	if got.Metrics.Counters != nil {
		t.Error("truncated manifest unexpectedly carries metrics")
	}
}

func TestSpanQueries(t *testing.T) {
	m := buildManifest()
	exps := m.SpansNamed("experiment")
	if len(exps) != 2 {
		t.Fatalf("got %d experiment spans, want 2", len(exps))
	}
	ids := map[string]bool{}
	for _, sp := range exps {
		ids[sp.Attrs["id"]] = true
	}
	if !ids["table3"] || !ids["fig5"] {
		t.Errorf("experiment span ids = %v", ids)
	}
}

// TestNilRecorderManifest: a disabled run still writes a valid (empty)
// manifest, so -manifest output never depends on instrumentation state.
func TestNilRecorderManifest(t *testing.T) {
	var r *Recorder
	m := r.Manifest(Meta{Tool: "circlebench", Seed: 9})
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Seed != 9 || got.Meta.Schema != SchemaV1 {
		t.Errorf("meta = %+v", got.Meta)
	}
	if len(got.Spans) != 0 {
		t.Errorf("spans = %d, want 0", len(got.Spans))
	}
}
