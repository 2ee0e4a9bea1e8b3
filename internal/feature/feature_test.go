package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/synth"
)

func TestTableSetAddFeatures(t *testing.T) {
	tab := NewTable(3)
	tab.Set(0, []int32{5, 1, 5, 3})
	got := tab.Features(0)
	want := []int32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("features = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("features = %v, want %v", got, want)
		}
	}
	tab.Add(0, 2)
	tab.Add(0, 2) // duplicate
	if len(tab.Features(0)) != 4 {
		t.Errorf("after Add: %v", tab.Features(0))
	}
}

func TestJaccard(t *testing.T) {
	tab := NewTable(3)
	tab.Set(0, []int32{1, 2, 3})
	tab.Set(1, []int32{2, 3, 4})
	tab.Set(2, nil)
	if got := tab.Jaccard(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.5 (2 of 4)", got)
	}
	if got := tab.Jaccard(0, 0); got != 1 {
		t.Errorf("self Jaccard = %v, want 1", got)
	}
	if got := tab.Jaccard(0, 2); got != 0 {
		t.Errorf("empty Jaccard = %v, want 0", got)
	}
}

func TestMeanPairwiseSimilarityExact(t *testing.T) {
	tab := NewTable(3)
	tab.Set(0, []int32{1})
	tab.Set(1, []int32{1})
	tab.Set(2, []int32{2})
	got, err := tab.MeanPairwiseSimilarity([]graph.VID{0, 1, 2}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: (0,1)=1, (0,2)=0, (1,2)=0 -> 1/3.
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("mean similarity = %v, want 1/3", got)
	}
}

func TestMeanPairwiseSimilaritySampled(t *testing.T) {
	tab := NewTable(200)
	for v := 0; v < 200; v++ {
		tab.Set(graph.VID(v), []int32{7})
	}
	members := make([]graph.VID, 200)
	for i := range members {
		members[i] = graph.VID(i)
	}
	got, err := tab.MeanPairwiseSimilarity(members, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("identical vectors similarity = %v, want 1", got)
	}
	if _, err := tab.MeanPairwiseSimilarity(members, 100, nil); err == nil {
		t.Error("sampled path with nil rng accepted")
	}
}

// TestPlantCreatesHomophily checks the core property: planted circles
// have higher internal feature similarity than random vertex sets.
func TestPlantCreatesHomophily(t *testing.T) {
	cfg := synth.DefaultEgoConfig()
	cfg.NumEgos = 8
	cfg.MeanEgoSize = 40
	cfg.PoolSize = 300
	cfg.Seed = 40
	ds, err := synth.GenerateEgo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Plant(ds.Graph, ds.Groups, DefaultPlantConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))

	var circleSim, randomSim float64
	for _, grp := range ds.Groups {
		s, err := tab.MeanPairwiseSimilarity(grp.Members, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		circleSim += s
		// Size-matched uniform random set.
		members := make([]graph.VID, len(grp.Members))
		for i := range members {
			members[i] = graph.VID(rng.Intn(ds.Graph.NumVertices()))
		}
		s, err = tab.MeanPairwiseSimilarity(members, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		randomSim += s
	}
	if circleSim <= 1.5*randomSim {
		t.Errorf("circle similarity %.4f not clearly above random %.4f", circleSim, randomSim)
	}
}

func TestPlantValidation(t *testing.T) {
	g, err := graph.FromEdges(true, [][2]int64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPlantConfig()
	cfg.FacetAdoption = 2
	if _, err := Plant(g, nil, cfg); err == nil {
		t.Error("bad config accepted")
	}
}

// Property: Jaccard is symmetric and within [0,1].
func TestQuickJaccard(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(2)
		for v := graph.VID(0); v < 2; v++ {
			k := rng.Intn(10)
			fs := make([]int32, k)
			for i := range fs {
				fs[i] = int32(rng.Intn(15))
			}
			tab.Set(v, fs)
		}
		ab := tab.Jaccard(0, 1)
		ba := tab.Jaccard(1, 0)
		return ab == ba && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
