// A hit-rate measurement over 1,000 sweeping requests: the race
// detector slows it about twentyfold, and TestHandlerMemoConcurrent
// already runs the shared memo under -race, so it runs only in normal
// builds.

//go:build !race

package ncp

import (
	"fmt"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/obs"
)

// (f) Handler requests cycling 200 request seeds on a graph whose
// working set is about three times the limit: the memo fills once, is
// never flushed, and later cycles hit the vectors it kept.
func TestHandlerMemoSeedCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	rec := obs.NewRecorder()
	s := core.NewSuite(core.SuiteOptions{Scale: 0.25, Seed: 99, Recorder: rec})
	h := Handler(s, experiments.Set{experiments.NCPSweep.Name: true})
	for i := 0; i < 1000; i++ {
		okBody(t, h, fmt.Sprintf(`{"dataset":"gplus","seed":%d}`, 1+i%200))
	}
	hits, misses := rec.Counter("ncp.memo.hits").Value(), rec.Counter("ncp.memo.misses").Value()
	if n := rec.Counter("ncp.memo.flushes").Value(); n != 0 {
		t.Errorf("ncp.memo.flushes = %d without a key change", n)
	}
	rate := float64(hits) / float64(hits+misses)
	t.Logf("1,000 requests cycling 200 seeds: %d of %d seeds hit (%.1f%%)", hits, hits+misses, 100*rate)
	if rate <= 0.16 {
		t.Errorf("hit rate %.3f is no better than a memo that flushes at its limit", rate)
	}
}
