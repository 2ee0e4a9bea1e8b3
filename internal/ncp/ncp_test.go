package ncp

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/serve/api"
)

// plantedGraph builds two dense blocks with a sparse bridge: enough
// structure that the sweep finds real dips, deterministic by seed.
func plantedGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 160
	const half = n / 2
	var edges [][2]int64
	// Ring inside each block keeps every vertex connected.
	for v := int64(0); v < half; v++ {
		edges = append(edges, [2]int64{v, (v + 1) % half})
		edges = append(edges, [2]int64{half + v, half + (v+1)%half})
	}
	// Dense intra-block chords.
	for i := 0; i < 6*n; i++ {
		base := int64(0)
		if i%2 == 1 {
			base = half
		}
		u := base + rng.Int63n(half)
		v := base + rng.Int63n(half)
		edges = append(edges, [2]int64{u, v})
	}
	// Sparse bridges.
	for i := 0; i < 8; i++ {
		edges = append(edges, [2]int64{rng.Int63n(half), half + rng.Int63n(half)})
	}
	g, err := graph.FromEdges(false, edges)
	if err != nil {
		t.Fatalf("build planted graph: %v", err)
	}
	return g
}

func cliqueGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges [][2]int64
	for u := int64(0); u < int64(n); u++ {
		for v := u + 1; v < int64(n); v++ {
			edges = append(edges, [2]int64{u, v})
		}
	}
	g, err := graph.FromEdges(false, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func curveBytes(t *testing.T, c *Curve) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteTable(&buf, "curve"); err != nil {
		t.Fatalf("render curve: %v", err)
	}
	return buf.Bytes()
}

// The tentpole determinism contract: the merged curve — and the bytes
// rendered from it — are identical across worker counts.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	g := plantedGraph(t, 1)
	var want []byte
	var wantCurve *Curve
	for _, workers := range []int{1, 4, 8} {
		c, err := Sweep(g, Options{Seeds: 24, MaxSize: 80, Workers: workers, Seed: 2})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b := curveBytes(t, c)
		if want == nil {
			want, wantCurve = b, c
			continue
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("workers=%d: curve bytes differ from workers=1", workers)
		}
		if len(c.Points) != len(wantCurve.Points) {
			t.Fatalf("workers=%d: %d points vs %d", workers, len(c.Points), len(wantCurve.Points))
		}
		for i, p := range c.Points {
			q := wantCurve.Points[i]
			if p.Size != q.Size || p.Conductance != q.Conductance { //lint:ignore floateq bit-identical contract
				t.Fatalf("workers=%d point %d: %+v vs %+v", workers, i, p, q)
			}
		}
	}
}

// Sweeps running at once share the pooled workspaces, which move between
// graphs of different sizes; every sweep must still render its serial
// curve's bytes.
func TestConcurrentSweepsSharePool(t *testing.T) {
	graphs := []*graph.Graph{plantedGraph(t, 1), plantedGraph(t, 2), cliqueGraph(t, 40)}
	opts := Options{Seeds: 16, MaxSize: 60, Workers: 3, Seed: 5}
	want := make([][]byte, len(graphs))
	for i, g := range graphs {
		c, err := Sweep(g, Options{Seeds: 16, MaxSize: 60, Workers: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = curveBytes(t, c)
	}
	var wg sync.WaitGroup
	for k := 0; k < 12; k++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Sweep(graphs[i], opts)
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if err := c.WriteTable(&buf, "curve"); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf.Bytes(), want[i]) {
				t.Errorf("graph %d: concurrent sweep differs from the serial one", i)
			}
		}(k % len(graphs))
	}
	wg.Wait()
}

// A pooled overlay that has not been mutated is the identity view of
// its parent; the sweep must not see the difference.
func TestSweepOverlayMatchesParent(t *testing.T) {
	g := plantedGraph(t, 3)
	opts := Options{Seeds: 16, MaxSize: 60, Seed: 5}
	parent, err := Sweep(g, opts)
	if err != nil {
		t.Fatalf("parent sweep: %v", err)
	}
	ov := graph.NewOverlay(g)
	overlay, err := Sweep(&ov.Graph, opts)
	if err != nil {
		t.Fatalf("overlay sweep: %v", err)
	}
	if !bytes.Equal(curveBytes(t, parent), curveBytes(t, overlay)) {
		t.Fatal("overlay sweep bytes differ from parent sweep")
	}
}

func TestSweepSeedDeterminism(t *testing.T) {
	g := plantedGraph(t, 7)
	a, err := Sweep(g, Options{Seeds: 12, Seed: 9})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	b, err := Sweep(g, Options{Seeds: 12, Seed: 9})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(curveBytes(t, a), curveBytes(t, b)) {
		t.Fatal("same options produced different curves")
	}
	c, err := Sweep(g, Options{Seeds: 12, Seed: 10})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Different stratified draws will almost surely probe different
	// seeds; equality here would suggest the Seed option is ignored.
	if bytes.Equal(curveBytes(t, a), curveBytes(t, c)) {
		t.Log("note: seeds 9 and 10 produced identical curves (possible but suspicious)")
	}
}

func TestStratifiedSeedsProperties(t *testing.T) {
	g := plantedGraph(t, 11)
	n := g.NumVertices()
	seeds := StratifiedSeeds(g, 10, 1)
	if len(seeds) != 10 {
		t.Fatalf("got %d seeds, want 10", len(seeds))
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			t.Fatalf("seed %d out of range", s)
		}
	}
	// k > n clamps to n and yields every vertex exactly once.
	all := StratifiedSeeds(g, n+50, 1)
	if len(all) != n {
		t.Fatalf("clamped draw has %d seeds, want %d", len(all), n)
	}
	seen := make(map[graph.VID]bool, n)
	for _, s := range all {
		if seen[s] {
			t.Fatalf("clamped draw repeats vertex %d", s)
		}
		seen[s] = true
	}
}

// stratifiedSeedsOracle is StratifiedSeeds with the ranking done by a
// comparison sort: rank by (degree desc, id asc) with sort.Slice, then
// draw one vertex per stratum from the same stream.
func stratifiedSeedsOracle(g *graph.Graph, k int, seed int64) []graph.VID {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	ranked := make([]graph.VID, n)
	for i := range ranked {
		ranked[i] = graph.VID(i)
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da > db
		}
		return a < b
	})
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	seeds := make([]graph.VID, k)
	for j := 0; j < k; j++ {
		lo, hi := j*n/k, (j+1)*n/k
		seeds[j] = ranked[lo+rng.Intn(hi-lo)]
	}
	return seeds
}

func checkSeedsMatchOracle(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	n := g.NumVertices()
	for _, k := range []int{0, 1, 3, 32, 64, n - 1, n, n + 5} {
		for _, seed := range []int64{1, 2, 77} {
			got, want := StratifiedSeeds(g, k, seed), stratifiedSeedsOracle(g, k, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d seed=%d: seeds %v, oracle %v", name, k, seed, got, want)
			}
		}
	}
}

// The counting-sort ranking must draw exactly the seeds the comparison
// sort drew, on every seed data set and on degree sequences with
// isolated vertices, a single degree value, one hub, and k >= n.
func TestStratifiedSeedsMatchSortOracle(t *testing.T) {
	build := func(directed bool, isolated []int64, edges ...[2]int64) *graph.Graph {
		b := graph.NewBuilder(directed)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		for _, v := range isolated {
			b.AddVertex(v)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return g
	}
	var ring, star [][2]int64
	for v := int64(0); v < 40; v++ {
		ring = append(ring, [2]int64{v, (v + 1) % 40})
		star = append(star, [2]int64{17, 100 + v})
	}
	star = append(star, [2]int64{100, 101}, [2]int64{102, 103})
	for name, g := range map[string]*graph.Graph{
		"isolated only":    build(false, []int64{5, 1, 9, 3}),
		"isolated mixed":   build(false, []int64{50, 60, 70}, [2]int64{0, 1}, [2]int64{1, 2}, [2]int64{3, 4}),
		"all equal":        build(false, nil, ring...),
		"one hub":          build(false, []int64{999}, star...),
		"one hub directed": build(true, nil, star...),
		"single vertex":    build(false, []int64{42}),
	} {
		checkSeedsMatchOracle(t, name, g)
		checkSeedsMatchOracle(t, name+" overlay", &graph.NewOverlay(g).Graph)
	}
	if testing.Short() {
		return
	}
	for _, name := range core.DatasetNames() {
		ds, err := testSuite().DatasetByName(name)
		if err != nil {
			t.Fatalf("dataset %s: %v", name, err)
		}
		checkSeedsMatchOracle(t, name, ds.Graph)
	}
}

func TestSweepCurveShape(t *testing.T) {
	g := plantedGraph(t, 13)
	c, err := Sweep(g, Options{Seeds: 16, MaxSize: 50, Seed: 1})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(c.Points) == 0 {
		t.Fatal("empty curve")
	}
	prev := 0
	for _, p := range c.Points {
		if p.Size <= prev {
			t.Fatalf("sizes not strictly ascending at %d", p.Size)
		}
		if p.Size > 50 {
			t.Fatalf("size %d exceeds MaxSize", p.Size)
		}
		if p.Conductance < 0 || p.Conductance > 1 {
			t.Fatalf("conductance %v outside [0,1]", p.Conductance)
		}
		prev = p.Size
	}
	if _, ok := c.Best(1); !ok {
		t.Fatal("curve missing size 1 (every seed contributes a size-1 prefix)")
	}
}

func TestNullCurveDeterministicAcrossWorkers(t *testing.T) {
	g := plantedGraph(t, 17)
	var want []byte
	for _, workers := range []int{1, 4} {
		c, err := NullCurve(g, 2, 1, nil, Options{Seeds: 8, MaxSize: 40, Workers: workers, Seed: 1})
		if err != nil {
			t.Fatalf("null curve workers=%d: %v", workers, err)
		}
		b := curveBytes(t, c)
		if want == nil {
			want = b
			continue
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("null curve bytes differ at workers=%d", workers)
		}
	}
}

// handlerSuite is shared across handler tests: suite generation is the
// expensive part, the requests themselves are cheap at scale 0.1.
var (
	handlerSuiteOnce sync.Once
	handlerSuite     *core.Suite
)

func testSuite() *core.Suite {
	handlerSuiteOnce.Do(func() {
		handlerSuite = core.NewSuite(core.SuiteOptions{Scale: 0.1, Seed: 3})
	})
	return handlerSuite
}

func postNCP(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ncp", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHandlerGated(t *testing.T) {
	h := Handler(testSuite(), experiments.Set{})
	rec := postNCP(t, h, `{"dataset":"gplus"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	apiErr, ok := api.DecodeError(rec.Body.Bytes())
	if !ok || apiErr.Code != api.CodeExperimentGated {
		t.Fatalf("error = %+v (ok=%v), want code %s", apiErr, ok, api.CodeExperimentGated)
	}
}

func TestHandlerValidation(t *testing.T) {
	h := Handler(testSuite(), experiments.Set{experiments.NCPSweep.Name: true})
	cases := []struct {
		name string
		body string
		code string
		http int
	}{
		{"malformed", `{`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"unknown field", `{"dataset":"gplus","bogus":1}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"trailing value", `{"dataset":"gplus","seeds":4} {"bogus": true}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"trailing garbage", `{"dataset":"gplus"} x`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"missing dataset", `{}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"seeds over cap", `{"dataset":"gplus","seeds":100000}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"negative eps", `{"dataset":"gplus","eps":-1}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"eps below floor", `{"dataset":"gplus","eps":9.9e-9}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"eps denormal", `{"dataset":"gplus","eps":5e-324}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"alpha one", `{"dataset":"gplus","alpha":1}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"max size over cap", `{"dataset":"gplus","max_size":1000000}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"null samples over cap", `{"dataset":"gplus","null_samples":100}`, api.CodeInvalidRequest, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope"}`, api.CodeUnknownDataset, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postNCP(t, h, tc.body)
			if rec.Code != tc.http {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.http, rec.Body.String())
			}
			apiErr, ok := api.DecodeError(rec.Body.Bytes())
			if !ok || apiErr.Code != tc.code {
				t.Fatalf("error = %+v (ok=%v), want code %s", apiErr, ok, tc.code)
			}
		})
	}
	// The floor itself, the default (0) and trailing whitespace are
	// accepted.
	for _, body := range []string{`{"dataset":"gplus","eps":1e-8}`, `{"dataset":"gplus","eps":0}`, "{\"dataset\":\"gplus\"} \n\t"} {
		if _, err := resolveNCP(strings.NewReader(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

func TestHandlerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	h := Handler(testSuite(), experiments.Set{experiments.NCPSweep.Name: true})
	rec := postNCP(t, h, `{"dataset":"gplus","seeds":8,"max_size":50,"null_samples":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp api.NCPResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.Dataset != "gplus" || resp.Seeds != 8 || len(resp.Points) == 0 {
		t.Fatalf("unexpected response header: %+v", resp)
	}
	prev := 0
	for _, p := range resp.Points {
		if p.Size <= prev || p.Conductance < 0 || p.Conductance > 1 {
			t.Fatalf("bad point %+v after size %d", p, prev)
		}
		prev = p.Size
	}
	if resp.NullSamples != 1 || len(resp.NullPoints) == 0 {
		t.Fatalf("null curve missing: %+v", resp)
	}
	// Determinism across requests: same body, same bytes.
	rec2 := postNCP(t, h, `{"dataset":"gplus","seeds":8,"max_size":50,"null_samples":1}`)
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("identical requests produced different bodies")
	}
}
