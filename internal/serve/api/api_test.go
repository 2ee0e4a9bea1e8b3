package api

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestErrorBodyShape pins the envelope's exact wire shape: clients
// switch on error.code, so the nesting and field names are API.
func TestErrorBodyShape(t *testing.T) {
	body := ErrorBody(CodeUnknownDataset, `dataset "nope" not found`)
	want := `{"error":{"code":"unknown_dataset","message":"dataset \"nope\" not found"}}`
	if string(body) != want {
		t.Errorf("ErrorBody = %s, want %s", body, want)
	}
	var raw map[string]map[string]string
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("envelope is not nested-object JSON: %v", err)
	}
	if raw["error"]["code"] != CodeUnknownDataset {
		t.Errorf("error.code = %q", raw["error"]["code"])
	}
}

// TestDecodeErrorRoundTrip: the envelope decodes back to the same
// code/message, and non-envelope bodies are rejected rather than
// misread.
func TestDecodeErrorRoundTrip(t *testing.T) {
	e, ok := DecodeError(ErrorBody(CodeQueueFull, "queue full"))
	if !ok || e.Code != CodeQueueFull || e.Message != "queue full" {
		t.Errorf("DecodeError = %+v, %v", e, ok)
	}
	for _, body := range []string{"", "queue full", `{"error":"flat string"}`, `{"message":"no code"}`} {
		if _, ok := DecodeError([]byte(body)); ok {
			t.Errorf("DecodeError accepted non-envelope body %q", body)
		}
	}
}

// TestScoreRequestTagsMatchServe: the wire tags are the contract the
// serving layer's canonicalization and key derivation rely on; a tag
// rename is an API break this test makes loud.
func TestScoreRequestTagsMatchServe(t *testing.T) {
	b, err := json.Marshal(ScoreRequest{Dataset: "d", Group: "g", Funcs: []string{"avgdeg"}, NullSamples: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"dataset"`, `"group"`, `"funcs"`, `"null_samples"`, `"seed"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("marshal missing %s: %s", field, b)
		}
	}
	// Optional fields stay off the wire when zero, keeping cache keys
	// derived from canonical structs rather than raw bodies honest.
	min, _ := json.Marshal(ScoreRequest{Dataset: "d", Members: []int64{1}})
	for _, absent := range []string{`"group"`, `"funcs"`, `"null_samples"`, `"seed"`} {
		if strings.Contains(string(min), absent) {
			t.Errorf("zero-value field %s serialized: %s", absent, min)
		}
	}
}
