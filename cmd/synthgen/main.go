// Command synthgen materializes the synthetic data sets to disk in SNAP
// formats: an edge list per graph plus a community file for its groups,
// so external tooling (or the other commands here) can consume them.
//
// Usage:
//
//	synthgen [-scale 1.0] [-seed 1] [-out dir] [-dataset name] [-v]
//
// Datasets: gplus, twitter, livejournal, orkut, crawl, all (default).
//
// The additional "scale" dataset (not part of "all") is the paper-scale
// community set built through the streaming pipeline; it honors
// -vertices, -shards and -workers, e.g.
//
//	synthgen -dataset scale -vertices 3000000 -v -out data
//
// The generator streams every edge twice into the graph builder (once to
// count degrees, once to fill the adjacency) rather than holding an edge
// list in memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpluscircles/internal/cliflag"
	"gpluscircles/internal/core"
	"gpluscircles/internal/dataset"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale    = flag.Float64("scale", 1.0, "data-set scale factor")
		seed     = cliflag.Seed(flag.CommandLine)
		verbose  = cliflag.Verbose(flag.CommandLine)
		workers  = cliflag.Workers(flag.CommandLine)
		shards   = cliflag.Shards(flag.CommandLine)
		vertices = cliflag.Vertices(flag.CommandLine)
		out      = flag.String("out", ".", "output directory")
		which    = flag.String("dataset", "all", "gplus|twitter|livejournal|orkut|crawl|scale|all")
		binary   = flag.Bool("binary", false, "additionally write binary CSR graphs (.bin) for fast reload")
	)
	// Parse through CommandLine directly so tests (ContinueOnError) see
	// flag errors instead of having flag.Parse drop them.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	suite := core.NewSuite(core.SuiteOptions{Scale: *scale, Seed: *seed})

	if *which == "scale" {
		return runScale(scaleRun{
			scale: *scale, seed: *seed, verbose: *verbose,
			workers: *workers, shards: *shards,
			vertices: *vertices, out: *out, binary: *binary,
		})
	}

	generators := map[string]func() (*synth.Dataset, error){
		"gplus":       suite.GPlus,
		"twitter":     suite.Twitter,
		"livejournal": suite.LiveJournal,
		"orkut":       suite.Orkut,
		"crawl":       suite.Crawl,
	}
	names := []string{"gplus", "twitter", "livejournal", "orkut", "crawl"}
	if *which != "all" {
		if _, ok := generators[*which]; !ok {
			return fmt.Errorf("unknown dataset %q (want %s or all)", *which, strings.Join(names, "|"))
		}
		names = []string{*which}
	}

	for _, name := range names {
		if *verbose {
			fmt.Fprintf(os.Stderr, "synthgen: generating %s at scale %g, seed %d\n", name, *scale, *seed)
		}
		ds, err := generators[name]()
		if err != nil {
			return err
		}
		edgePath := filepath.Join(*out, name+".edges.txt")
		if err := dataset.WriteEdgeListFile(edgePath, ds.Graph, ds.Name); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s (%d vertices, %d edges)\n",
			ds.Name, edgePath, ds.Graph.NumVertices(), ds.Graph.NumEdges())
		if len(ds.Groups) > 0 {
			groupPath := filepath.Join(*out, name+".cmty.txt")
			if err := dataset.WriteCommunitiesFile(groupPath, ds.Graph, ds.Groups); err != nil {
				return err
			}
			fmt.Printf("%s: wrote %s (%d groups)\n", ds.Name, groupPath, len(ds.Groups))
		}
		if *binary {
			binPath := filepath.Join(*out, name+".bin")
			if err := dataset.WriteBinaryGraphFile(binPath, ds.Graph); err != nil {
				return err
			}
			fmt.Printf("%s: wrote %s (binary CSR)\n", ds.Name, binPath)
		}
	}
	return nil
}

// scaleRun carries the flag values of a -dataset scale invocation.
type scaleRun struct {
	scale           float64
	seed            int64
	verbose         bool
	workers, shards int
	vertices        int64
	out             string
	binary          bool
}

// runScale generates the paper-scale community data set through the
// streaming pipeline and writes it in the same SNAP formats as the
// registry data sets.
func runScale(r scaleRun) error {
	cfg := synth.DefaultScaleConfig()
	cfg.NumVertices = int64(float64(cfg.NumVertices) * r.scale)
	cfg.NumCommunities = int(float64(cfg.NumCommunities) * r.scale)
	if r.vertices > 0 {
		// An explicit vertex count scales the community count with it,
		// preserving the default 100-vertices-per-community density.
		cfg.NumCommunities = int(r.vertices / (synth.DefaultScaleConfig().NumVertices /
			int64(synth.DefaultScaleConfig().NumCommunities)))
		cfg.NumVertices = r.vertices
	}
	if cfg.NumCommunities < 1 {
		cfg.NumCommunities = 1
	}
	// Seed offset matches Suite.ScaleCommunity, so files generated here
	// line up with the fig6-scale experiment at the same -seed.
	cfg.Seed = r.seed + 5
	cfg.Shards = r.shards

	rec := obs.NewRecorder()
	if r.verbose {
		fmt.Fprintf(os.Stderr, "synthgen: generating scale dataset: %d vertices, %d communities, seed %d\n",
			cfg.NumVertices, cfg.NumCommunities, cfg.Seed)
	}
	start := obs.Now()
	ds, err := synth.GenerateScale("Scale", cfg, synth.ScaleOptions{
		Workers:  r.workers,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	elapsed := obs.Since(start)
	if r.verbose {
		snap := rec.Snapshot()
		edges := snap.Counters["synth.scale.pass1.edges"]
		rate := float64(edges) / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "synthgen: streamed %d raw edges in %s (%.0f edges/sec), builder peak %d bytes\n",
			edges, elapsed.Round(time.Millisecond), rate, snap.Gauges["synth.scale.builder.peak.bytes"])
		for _, name := range []string{"synth.scale.members", "synth.scale.pass1", "synth.scale.pass2", "synth.scale.finish"} {
			if ts, ok := snap.Timers[name]; ok {
				fmt.Fprintf(os.Stderr, "synthgen: %-24s %s\n", name,
					time.Duration(ts.SumNs).Round(time.Millisecond))
			}
		}
	}

	edgePath := filepath.Join(r.out, "scale.edges.txt")
	if err := dataset.WriteEdgeListFile(edgePath, ds.Graph, ds.Name); err != nil {
		return err
	}
	fmt.Printf("%s: wrote %s (%d vertices, %d edges)\n",
		ds.Name, edgePath, ds.Graph.NumVertices(), ds.Graph.NumEdges())
	groupPath := filepath.Join(r.out, "scale.cmty.txt")
	if err := dataset.WriteCommunitiesFile(groupPath, ds.Graph, ds.Groups); err != nil {
		return err
	}
	fmt.Printf("%s: wrote %s (%d groups)\n", ds.Name, groupPath, len(ds.Groups))
	if r.binary {
		binPath := filepath.Join(r.out, "scale.bin")
		if err := dataset.WriteBinaryGraphFile(binPath, ds.Graph); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s (binary CSR)\n", ds.Name, binPath)
	}
	return nil
}
