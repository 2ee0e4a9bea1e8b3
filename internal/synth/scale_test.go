package synth

import (
	"bytes"
	"errors"
	"testing"

	"gpluscircles/internal/graph"
)

// testScaleConfig is small enough for -race CI runs but large enough to
// exercise every phase (multiple background blocks need n > 2^16 — too
// slow here; the full-size path is covered by the gated benchmark).
func testScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.NumVertices = 3000
	cfg.NumCommunities = 40
	cfg.Seed = 11
	return cfg
}

func graphBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// groupFingerprint renders the group structure for equality checks.
func groupFingerprint(d *Dataset) string {
	var buf bytes.Buffer
	for _, g := range d.Groups {
		buf.WriteString(g.Name)
		buf.WriteByte(':')
		for _, m := range g.Members {
			buf.WriteByte(' ')
			buf.WriteString(string(rune(m%26 + 'a'))) // cheap stable digest
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestGenerateScaleSeedStable is the ISSUE's required stability matrix:
// shard counts {1,4,8} and worker counts {1,4} must all produce the
// bit-identical graph and identical groups.
func TestGenerateScaleSeedStable(t *testing.T) {
	cfg := testScaleConfig()
	var wantGraph []byte
	var wantGroups string
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4} {
			c := cfg
			c.Shards = shards
			ds, err := GenerateScale("Scale", c, ScaleOptions{Workers: workers})
			if err != nil {
				t.Fatalf("GenerateScale(shards=%d workers=%d): %v", shards, workers, err)
			}
			gb, gg := graphBytes(t, ds.Graph), groupFingerprint(ds)
			if wantGraph == nil {
				wantGraph, wantGroups = gb, gg
				continue
			}
			if !bytes.Equal(gb, wantGraph) {
				t.Fatalf("shards=%d workers=%d: graph differs from shards=1 workers=1", shards, workers)
			}
			if gg != wantGroups {
				t.Fatalf("shards=%d workers=%d: groups differ from shards=1 workers=1", shards, workers)
			}
		}
	}
}

// TestGenerateScaleStructure sanity-checks the generated dataset.
func TestGenerateScaleStructure(t *testing.T) {
	cfg := testScaleConfig()
	ds, err := GenerateScale("Scale", cfg, ScaleOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if int64(g.NumVertices()) != cfg.NumVertices {
		t.Fatalf("n = %d, want %d", g.NumVertices(), cfg.NumVertices)
	}
	if g.NumEdges() == 0 || g.Directed() {
		t.Fatalf("want a non-empty undirected graph, got m=%d directed=%v", g.NumEdges(), g.Directed())
	}
	if ds.Kind != Communities {
		t.Fatalf("kind = %v, want Communities", ds.Kind)
	}
	if len(ds.Groups) == 0 {
		t.Fatal("no groups generated")
	}
	for _, grp := range ds.Groups {
		if len(grp.Members) < 3 {
			t.Fatalf("group %s has %d members, below the floor of 3", grp.Name, len(grp.Members))
		}
		for i, m := range grp.Members {
			if i > 0 && grp.Members[i-1] >= m {
				t.Fatalf("group %s members not strictly ascending", grp.Name)
			}
			if int64(m) >= cfg.NumVertices {
				t.Fatalf("group %s member %d outside vertex range", grp.Name, m)
			}
		}
	}
	// Mean degree should be in the ballpark the config implies:
	// ~2·μ·IntraDegree + BackgroundDegree, minus dedup/self-loop losses.
	implied := 2*cfg.MembershipsPerVertex*cfg.IntraDegree + cfg.BackgroundDegree
	if md := g.MeanDegree(); md < implied/3 || md > implied*2 {
		t.Fatalf("mean degree %.1f implausible for implied %.1f", md, implied)
	}
}

func TestScaleConfigValidate(t *testing.T) {
	bad := []func(*ScaleConfig){
		func(c *ScaleConfig) { c.NumVertices = 5 },
		func(c *ScaleConfig) { c.NumVertices = 1 << 33 },
		func(c *ScaleConfig) { c.NumCommunities = 0 },
		func(c *ScaleConfig) { c.MinCommunitySize = 2 },
		func(c *ScaleConfig) { c.MaxCommunitySize = c.MinCommunitySize - 1 },
		func(c *ScaleConfig) { c.SizeExponent = 1 },
		func(c *ScaleConfig) { c.MembershipsPerVertex = 0.5 },
		func(c *ScaleConfig) { c.IntraDegree = -1 },
		func(c *ScaleConfig) { c.BackgroundDegree = -1 },
		func(c *ScaleConfig) { c.Shards = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultScaleConfig()
		mutate(&cfg)
		if _, err := GenerateScale("Scale", cfg, ScaleOptions{}); !errors.Is(err, errBadConfig) {
			t.Fatalf("case %d: got %v, want errBadConfig", i, err)
		}
	}
}
