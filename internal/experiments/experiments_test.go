package experiments

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// TestGetCurrentRegistered checks the happy path over the real registry.
func TestGetCurrentRegistered(t *testing.T) {
	exp, err := GetCurrent("triangle-cohesion")
	if err != nil {
		t.Fatalf("GetCurrent(triangle-cohesion): %v", err)
	}
	if exp != TriangleCohesion || exp.Doc == "" {
		t.Errorf("GetCurrent(triangle-cohesion) = %+v", exp)
	}
}

// TestGetCurrentUnknown checks the unknown-name error shape.
func TestGetCurrentUnknown(t *testing.T) {
	_, err := GetCurrent("warp-drive")
	var unavail UnavailableError
	if !errors.As(err, &unavail) || !unavail.Unknown {
		t.Fatalf("GetCurrent(warp-drive) = %v, want UnavailableError{Unknown: true}", err)
	}
	if !strings.Contains(err.Error(), `"warp-drive"`) {
		t.Errorf("error does not name the experiment: %v", err)
	}
}

// TestGetCurrentDefunct proves the retirement path: a concluded name
// resolves to DefunctError carrying the replacement pointer, not to an
// unknown-name error.
func TestGetCurrentDefunct(t *testing.T) {
	_, err := GetCurrent("scale-edgelist")
	var defunct DefunctError
	if !errors.As(err, &defunct) {
		t.Fatalf("GetCurrent(scale-edgelist) = %v, want DefunctError", err)
	}
	if !strings.Contains(err.Error(), "synthgen -dataset scale") {
		t.Errorf("defunct message should point at the replacement: %v", err)
	}
}

// TestConcludedMessages pins the retirement message of every concluded
// name: a stale -experiments value must tell the user exactly where the
// surface went, through ParseSet (the flag path) as well as GetCurrent.
func TestConcludedMessages(t *testing.T) {
	for name, want := range map[string]string{
		"scale-edgelist": `the "scale-edgelist" experiment is defunct: the paper-scale data set is now built by the streaming pipeline (synthgen -dataset scale, circlebench -experiment fig6-scale), which needs no opt-in`,
		"scale-pipeline": `the "scale-pipeline" experiment has graduated: synthgen -dataset scale and circlebench -experiment fig6-scale run without opt-in; drop it from -experiments`,
		"batch-scoring":  `the "batch-scoring" experiment is defunct: the NDJSON batch endpoint was removed; send one POST /v1/score per request instead`,
	} {
		_, err := ParseSet("triangle-cohesion," + name)
		var defunct DefunctError
		if !errors.As(err, &defunct) {
			t.Errorf("ParseSet(%s) = %v, want DefunctError", name, err)
			continue
		}
		if err.Error() != want {
			t.Errorf("%s message = %q, want %q", name, err.Error(), want)
		}
	}
}

// TestAllSorted checks All returns the registry sorted by name.
func TestAllSorted(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Errorf("All() not sorted: %+v", all)
	}
	found := false
	for _, exp := range all {
		if exp.Name == TriangleCohesion.Name {
			found = true
		}
	}
	if !found {
		t.Error("All() missing triangle-cohesion")
	}
}

// TestParseSet covers the flag-parsing surface: empty, valid, spaced,
// unknown and defunct values.
func TestParseSet(t *testing.T) {
	set, err := ParseSet("")
	if err != nil || len(set) != 0 {
		t.Fatalf("ParseSet(\"\") = %v, %v", set, err)
	}
	set, err = ParseSet(" triangle-cohesion , ")
	if err != nil || !set.Enabled("triangle-cohesion") {
		t.Fatalf("ParseSet(triangle-cohesion) = %v, %v", set, err)
	}
	if _, err := ParseSet("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	var defunct DefunctError
	if _, err := ParseSet("scale-edgelist"); !errors.As(err, &defunct) {
		t.Errorf("ParseSet(scale-edgelist) = %v, want DefunctError", err)
	}
}

// TestSetRequire checks the gate call: enabled passes, disabled returns
// the friendly opt-in error naming the flag value to use.
func TestSetRequire(t *testing.T) {
	enabled := Set{"triangle-cohesion": true}
	if err := enabled.Require(TriangleCohesion); err != nil {
		t.Errorf("Require on enabled set: %v", err)
	}
	err := Set{}.Require(TriangleCohesion)
	var unavail UnavailableError
	if !errors.As(err, &unavail) || unavail.Unknown {
		t.Fatalf("Require on empty set = %v, want UnavailableError{Unknown: false}", err)
	}
	if !strings.Contains(err.Error(), "-experiments=triangle-cohesion") {
		t.Errorf("opt-in hint missing from %v", err)
	}
}

// TestSetString checks the canonical sorted rendering.
func TestSetString(t *testing.T) {
	s := Set{"b-exp": true, "a-exp": true, "off": false}
	if got := s.String(); got != "a-exp,b-exp" {
		t.Errorf("Set.String() = %q, want a-exp,b-exp", got)
	}
	if got := (Set{}).String(); got != "" {
		t.Errorf("empty Set.String() = %q", got)
	}
}

// TestRegisterPanics checks the static-misconfiguration guards: dup
// registration, concluding a current name, and re-registering a
// concluded one.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate Register", func() { Register("triangle-cohesion", "dup") })
	mustPanic("Conclude current", func() { Conclude("triangle-cohesion", "retired") })
	mustPanic("Register concluded", func() { Register("scale-edgelist", "zombie") })
}
