package gpluscircles_test

// NCP sweep benchmarks (`make bench-ncp`): the approximate-PPR network
// community profile over the shared benchmark Google+ data set, serial
// versus fanned out over GOMAXPROCS workers. The two report the same
// curve — the merge is worker-count-independent by contract — so the
// pair measures pure fan-out overhead and scaling, not different work.
// BenchmarkPPRPush isolates the push layer under the serial sweep.

import (
	"testing"

	"gpluscircles/internal/detect"
	"gpluscircles/internal/ncp"
)

// benchNCPOptions keeps both benchmarks on one sweep configuration so
// their ns/op are directly comparable in `circlebench compare`.
func benchNCPOptions(workers int) ncp.Options {
	return ncp.Options{Seeds: 32, MaxSize: 200, Workers: workers, Seed: 1}
}

func BenchmarkNCPSweepSerial(b *testing.B) {
	s := suite(b)
	gp, err := s.GPlus()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ncp.Sweep(gp.Graph, benchNCPOptions(1)); err != nil {
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
		if _, err := ncp.Sweep(gp.Graph, benchNCPOptions(0)); err != nil {
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
	seeds := ncp.StratifiedSeeds(g, benchNCPOptions(1).Seeds, benchNCPOptions(1).Seed)
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
