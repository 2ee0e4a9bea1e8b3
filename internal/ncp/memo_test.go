package ncp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/detect"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/par/partest"
	"gpluscircles/internal/serve/api"
)

// memoRequest is one /v1/ncp request of the memo tests, with the body it
// sends and the options a memo-free sweep of it resolves to.
type memoRequest struct {
	body        string
	opts        Options
	nullSamples int
}

// memoRequests builds n Google+ requests with distinct seeds. They run
// in blocks of 25 that alternate the defaults with a changed eps, alpha
// or max_size, and every 37th request changes eps alone, so the memo's
// key switches away from the defaults and back again, both after a
// block has filled the memo and for a single request. The seed count
// cycles through four values, which leaves the key alone.
func memoRequests(n int) []memoRequest {
	reqs := make([]memoRequest, n)
	for i := range reqs {
		o := Options{Seeds: []int{4, 8, 12, 16}[i%4], Seed: int64(i + 1)}
		switch (i / 25) % 6 {
		case 1:
			o.Eps = 1e-3
		case 3:
			o.Alpha = 0.2
		case 5:
			o.MaxSize = 50
		}
		if i%37 == 0 {
			o.Eps = 1e-3
		}
		reqs[i] = memoRequest{
			body: fmt.Sprintf(`{"dataset":"gplus","seeds":%d,"eps":%g,"alpha":%g,"max_size":%d,"seed":%d}`,
				o.Seeds, o.Eps, o.Alpha, o.MaxSize, o.Seed),
			opts: o,
		}
	}
	return reqs
}

// memoFreeBody renders the response the handler must send for req from
// the exported, uncached Sweep and NullCurve.
func memoFreeBody(t *testing.T, s *core.Suite, req memoRequest) []byte {
	t.Helper()
	ds, err := s.DatasetByName("gplus")
	if err != nil {
		t.Fatal(err)
	}
	curve, err := Sweep(ds.Graph, req.opts)
	if err != nil {
		t.Fatal(err)
	}
	resp := api.NCPResponse{Dataset: "gplus", Seeds: curve.Seeds, Eps: curve.Eps, Alpha: curve.Alpha, Points: apiPoints(curve)}
	if req.nullSamples > 0 {
		nullCurve, err := NullCurve(ds.Graph, req.nullSamples, req.opts.Seed, s.NullArena(ds.Graph), req.opts)
		if err != nil {
			t.Fatal(err)
		}
		resp.NullPoints, resp.NullSamples = apiPoints(nullCurve), req.nullSamples
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func okBody(t *testing.T, h http.Handler, body string) []byte {
	t.Helper()
	rec := postNCP(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// (a) Over 1,000 requests whose key switches both ways, every memoized
// response equals the one rendered from a memo-free Sweep, and the memo
// counters show that requests did hit, miss and flush.
func TestHandlerMemoMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	rec := obs.NewRecorder()
	s := core.NewSuite(core.SuiteOptions{Scale: 0.1, Seed: 3, Recorder: rec})
	h := Handler(s, experiments.Set{experiments.NCPSweep.Name: true})
	for _, req := range memoRequests(1000) {
		if got := okBody(t, h, req.body); !bytes.Equal(got, memoFreeBody(t, s, req)) {
			t.Fatalf("%s: memoized body differs from Sweep's", req.body)
		}
	}
	for _, name := range []string{"ncp.memo.hits", "ncp.memo.misses", "ncp.memo.flushes"} {
		if rec.Counter(name).Value() == 0 {
			t.Errorf("%s = 0 after 1,000 requests", name)
		}
	}
}

// checkHeld recomputes what m holds and checks it against m.held and the
// limit.
func checkHeld(t *testing.T, m *seedMemo) {
	t.Helper()
	held := 0
	for _, c := range m.conds {
		held += len(c) + memoEntryCost
	}
	if held != m.held || held > m.limit {
		t.Fatalf("memo holds %d (recorded %d), limit %d", held, m.held, m.limit)
	}
}

// (b) On graphs whose working set is larger than the limit, every sweep
// through the memo renders the bytes Sweep renders, the memo never holds
// more than its limit, and, the key never changing, it never flushes. A
// two-vertex path's limit (2 arcs) is below any entry's cost, so its
// memo stays empty.
func TestSweepMemoBound(t *testing.T) {
	path, err := graph.FromEdges(false, [][2]int64{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"planted": plantedGraph(t, 5),
		"clique":  cliqueGraph(t, 6),
		"path":    path,
	} {
		var flushes obs.Counter
		m := newSeedMemo(g, memoCounters{flushes: &flushes})
		for i := 0; i < 60; i++ {
			opts := Options{Seeds: 1 + i%12, MaxSize: 60, Seed: int64(i + 1)}
			got, err := sweep(g, opts, m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := Sweep(g, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
				t.Fatalf("%s request %d: memoized curve differs from Sweep's", name, i)
			}
			checkHeld(t, m)
		}
		if name == "path" && len(m.conds) != 0 {
			t.Errorf("path: memo holds %d entries above its limit", len(m.conds))
		}
		if n := flushes.Value(); n != 0 {
			t.Errorf("%s: %d flushes without a key change", name, n)
		}
	}
}

// (c) A response with null curves equals the memo-free one, after
// earlier requests have filled the memo for the graph the nulls rewire.
func TestHandlerMemoNullCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	s := testSuite()
	h := Handler(s, experiments.Set{experiments.NCPSweep.Name: true})
	for _, req := range memoRequests(20) {
		okBody(t, h, req.body)
	}
	for seed := int64(1); seed <= 3; seed++ {
		req := memoRequest{
			body:        fmt.Sprintf(`{"dataset":"gplus","seeds":16,"null_samples":2,"seed":%d}`, seed),
			opts:        Options{Seeds: 16, Seed: seed},
			nullSamples: 2,
		}
		if got := okBody(t, h, req.body); !bytes.Equal(got, memoFreeBody(t, s, req)) {
			t.Fatalf("%s: memoized body differs from the memo-free one", req.body)
		}
	}
}

// (d) Requests running at once on one handler share its memo; each body
// must equal the one a fresh handler sends for the same request serially.
func TestHandlerMemoConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	s := testSuite()
	set := experiments.Set{experiments.NCPSweep.Name: true}
	reqs := memoRequests(48)
	partest.GOMAXPROCS(t, 1)
	want := make([][]byte, len(reqs))
	serial := Handler(s, set)
	for i, req := range reqs {
		want[i] = okBody(t, serial, req.body)
	}
	partest.GOMAXPROCS(t, 4)
	h := Handler(s, set)
	const clients = 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every client sends every request, from a different start,
			// so the same vertices are looked up and stored at once.
			for k := range reqs {
				i := (k + c*len(reqs)/clients) % len(reqs)
				rec := postNCP(t, h, reqs[i].body)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("client %d, %s: concurrent body differs from the serial one", c, reqs[i].body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// (e) A sweep that fails stores nothing, not even the seeds that
// succeeded. The memo's ranking is swapped for one of a larger graph,
// so some drawn seeds lie outside the swept graph and their push fails.
func TestSweepMemoSkipsFailedSweep(t *testing.T) {
	g := plantedGraph(t, 9)
	m := newSeedMemo(g, memoCounters{})
	m.ranked = rankByDegree(cliqueGraph(t, 2*g.NumVertices()))
	opts := Options{Seeds: 16, MaxSize: 40, Seed: 4}
	if _, err := sweep(g, opts, m); !errors.Is(err, detect.ErrBadSeed) {
		t.Fatalf("sweep error = %v, want %v", err, detect.ErrBadSeed)
	}
	if len(m.conds) != 0 || m.held != 0 {
		t.Fatalf("a failed sweep left %d entries (%d held) in the memo", len(m.conds), m.held)
	}
	m.ranked = nil
	if _, err := sweep(g, opts, m); err != nil {
		t.Fatal(err)
	}
	if len(m.conds) != opts.Seeds {
		t.Fatalf("a clean sweep stored %d entries, want %d", len(m.conds), opts.Seeds)
	}
}
