// The race detector makes sync.Pool drop items at random and adds its
// own allocations, so the allocation caps hold only in normal builds.

//go:build !race

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"gpluscircles/internal/serve/api"
)

// TestResolveScoreAllocs caps the allocations of the /v1/score request
// path outside the HTTP stack: resolving a named-group request (decode,
// validation, index lookup, function registry, key) and scoring an
// analytic job on a worker (cut, scores, encode). Neither may allocate
// per member or per registered function: the group's canonical members
// and set hash come from the data set's index, and the scoring set from
// its pool.
func TestResolveScoreAllocs(t *testing.T) {
	s := newTestServer(t, Options{})
	group, _ := firstGroup(t, "gplus")
	body, err := json.Marshal(api.ScoreRequest{Dataset: "gplus", Group: group})
	if err != nil {
		t.Fatal(err)
	}
	job, herr := s.resolveScore(bytes.NewReader(body))
	if herr != nil {
		t.Fatalf("resolve: %+v", herr)
	}
	ctx := context.Background()
	if _, status := s.runScore(ctx, job); status != http.StatusOK {
		t.Fatalf("score: status %d", status)
	}

	// Before the per-data-set index and the static function registry
	// these were 26 and 18.
	const resolveCap, runCap = 12, 13
	resolve := testing.AllocsPerRun(100, func() {
		if _, herr := s.resolveScore(bytes.NewReader(body)); herr != nil {
			t.Fatalf("resolve: %+v", herr)
		}
	})
	run := testing.AllocsPerRun(100, func() {
		if _, status := s.runScore(ctx, job); status != http.StatusOK {
			t.Fatalf("score: status %d", status)
		}
	})
	t.Logf("allocs/op: resolveScore %.0f, runScore %.0f", resolve, run)
	if resolve > resolveCap {
		t.Errorf("resolveScore of a group request: %.0f allocs/op, cap %d", resolve, resolveCap)
	}
	if run > runCap {
		t.Errorf("analytic runScore: %.0f allocs/op, cap %d", run, runCap)
	}
}
