package gpluscircles_test

// NCP sweep benchmarks (`make bench-ncp`): the approximate-PPR network
// community profile over the shared benchmark Google+ data set, at
// GOMAXPROCS=1 (Serial) versus the runner's GOMAXPROCS (Parallel, set by
// -cpu). The two report the same curve — the merge is independent of
// GOMAXPROCS by contract — so the pair measures pure fan-out overhead
// and scaling, not different work.
// BenchmarkPPRPush isolates the push layer under the serial sweep, and
// BenchmarkNCPHandler and BenchmarkNCPHandlerCold time whole /v1/ncp
// requests in process, with the handler's seed memo warm and empty.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpluscircles/internal/detect"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/ncp"
	"gpluscircles/internal/par/partest"
)

// benchNCPOptions keeps both benchmarks on one sweep configuration so
// their ns/op are directly comparable in `circlebench compare`.
var benchNCPOptions = ncp.Options{Seeds: 32, MaxSize: 200, Seed: 1}

func BenchmarkNCPSweepSerial(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	partest.GOMAXPROCS(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ncp.Sweep(gp.Graph, benchNCPOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNCPSweepParallel(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ncp.Sweep(gp.Graph, benchNCPOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPRPush times the push layer of one serial sweep: the PPR
// push and degree-normalized ordering from each of the 32 stratified
// seeds, on one reused workspace, without the sweep cut or the merge.
func BenchmarkPPRPush(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	g := gp.Graph
	seeds := ncp.StratifiedSeeds(g, benchNCPOptions.Seeds, benchNCPOptions.Seed)
	ppr := detect.NewPPR(g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range seeds {
			vec, err := ppr.Push(g, v, detect.PPROptions{})
			if err != nil {
				b.Fatal(err)
			}
			vec.DegreeNormalizedOrder(g)
		}
	}
}

// BenchmarkNCPHandler times one POST /v1/ncp through ncp.Handler, in
// process and without a network: decoding, the sweep at the request
// defaults (32 seeds, eps 1e-4, sizes up to 400) on Google+, and
// encoding. Requests cycle through 200 distinct seeds, as the query-ncp
// workload sends distinct seeds. One handler serves every op, so its
// per-graph seed memo answers the seeds earlier ops swept. On this
// benchmark's Google+ (431 vertices, 9,307 arcs) the memo's bound of one
// float per arc holds under a third of the vectors the cycle draws, so
// it fills and about one seed in three hits; on the query-ncp graph
// (scale 1) the whole memo fits and most seeds hit.
func BenchmarkNCPHandler(b *testing.B) {
	benchNCPHandler(b, false)
}

// BenchmarkNCPHandlerCold is BenchmarkNCPHandler with a fresh handler per
// op, so the memo is empty and every seed misses: the first request a
// server sees, and the cost of a request before the memo existed.
func BenchmarkNCPHandlerCold(b *testing.B) {
	benchNCPHandler(b, true)
}

func benchNCPHandler(b *testing.B, cold bool) {
	s := suite(b)
	if _, err := s.GPlus(); err != nil {
		b.Fatal(err)
	}
	set := experiments.Set{experiments.NCPSweep.Name: true}
	h := ncp.Handler(s, set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			h = ncp.Handler(s, set)
		}
		body := fmt.Sprintf(`{"dataset":"gplus","seed":%d}`, 1+i%200)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ncp", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
