package graph_test

import (
	"bytes"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/synth"
)

func encode(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// TestBuilderMatchesOracleOnSeedDatasets checks every seed data set's
// graph, built through Builder, and a re-stream of its edges through the
// sparse StreamBuilder against the naive oracle, byte for byte.
func TestBuilderMatchesOracleOnSeedDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("seed-dataset equivalence is slow; run without -short")
	}
	datasets := map[string]func() (*synth.Dataset, error){
		"gplus":   func() (*synth.Dataset, error) { return synth.GenerateEgo(synth.DefaultEgoConfig()) },
		"twitter": func() (*synth.Dataset, error) { return synth.GenerateFollower(synth.DefaultFollowerConfig()) },
		"livejournal": func() (*synth.Dataset, error) {
			return synth.GenerateAGM("LiveJournal", synth.DefaultLiveJournalConfig())
		},
		"orkut": func() (*synth.Dataset, error) { return synth.GenerateAGM("Orkut", synth.DefaultOrkutConfig()) },
		"crawl": func() (*synth.Dataset, error) { return synth.GenerateCrawl(synth.DefaultCrawlConfig()) },
	}
	for _, name := range []string{"gplus", "twitter", "livejournal", "orkut", "crawl"} {
		ds, err := datasets[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := ds.Graph
		ids := g.ExternalIDs()
		var pairs [][2]int64
		g.Edges(func(e graph.Edge) bool {
			pairs = append(pairs, [2]int64{ids[e.From], ids[e.To]})
			return true
		})
		oracle, err := graph.OracleBuild(g.Directed(), ids, pairs)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		want := encode(t, oracle)
		if !bytes.Equal(encode(t, g), want) {
			t.Fatalf("%s: Builder graph differs from the oracle", name)
		}

		sb, err := graph.NewStreamBuilder(g.Directed(), graph.StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stream := func() {
			for _, id := range ids {
				sb.AddVertex(id)
			}
			for _, p := range pairs {
				sb.AddEdge(p[0], p[1])
			}
		}
		stream()
		if err := sb.Rewind(); err != nil {
			t.Fatalf("%s: Rewind: %v", name, err)
		}
		stream()
		got, err := sb.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", name, err)
		}
		if !bytes.Equal(encode(t, got), want) {
			t.Fatalf("%s: streaming rebuild differs from the oracle", name)
		}
	}
}
