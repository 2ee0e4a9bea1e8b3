// Command ncpprobe times the network-community-profile layers in process
// for the benchmark's traced mode and prints them as one JSON object:
//
//	ncpprobe -seed <workload seed>
//
// Each of the 30 sweeps runs ncp.Sweep on the query-ncp graph (Google+,
// scale 1, data seed 1) with the request defaults and a distinct seed,
// then replays the same stratified seeds serially through detect's PPR
// push and graphalgo's sweep cutter. The metrics are per-sweep medians:
// ncp.sweep_ms (wall time of the parallel sweep), detect.ppr_push_ms
// (push plus degree-normalized ordering) and graphalgo.sweepcut_ms.
//
// The ncp package belongs to the ncp-sweep experiment, so this probe is
// declared part of it rather than importing it from stable code.
//
//experiments:package ncp-sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/detect"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/ncp"
	"gpluscircles/internal/obs"
)

// sweeps is how many sweeps the probe times.
const sweeps = 30

// maxSize is the longest prefix swept: the request default, passed to
// ncp.Sweep explicitly so that the serial replay covers the same
// prefixes.
const maxSize = 400

func main() {
	seed := flag.Int64("seed", 1, "workload seed; sweep i uses seed*1000003 + i + 1")
	flag.Parse()
	if err := run(*seed); err != nil {
		fmt.Fprintln(os.Stderr, "ncpprobe:", err)
		os.Exit(1)
	}
}

func run(seed int64) error {
	suite := core.NewSuite(core.SuiteOptions{Scale: 1, Seed: 1})
	gp, err := suite.GPlus()
	if err != nil {
		return err
	}
	g := gp.Graph
	ppr := detect.NewPPR(g.NumVertices())
	cutter := graphalgo.NewSweepCutter(g.NumVertices())
	var sweep, push, cut []float64
	for i := 0; i < sweeps; i++ {
		s := seed*1_000_003 + int64(i) + 1
		t := obs.Now()
		curve, err := ncp.Sweep(g, ncp.Options{Seed: s, MaxSize: maxSize})
		if err != nil {
			return err
		}
		sweep = append(sweep, ms(obs.Since(t)))

		opts := detect.PPROptions{Alpha: curve.Alpha, Eps: curve.Eps}
		var dp, dc time.Duration
		for _, v := range ncp.StratifiedSeeds(g, curve.Seeds, s) {
			t := obs.Now()
			vec, err := ppr.Push(g, v, opts)
			if err != nil {
				return err
			}
			order := vec.DegreeNormalizedOrder(g)
			dp += obs.Since(t)
			if len(order) > maxSize {
				order = order[:maxSize]
			}
			t = obs.Now()
			if _, err := cutter.Conductances(g, order, nil); err != nil {
				return err
			}
			dc += obs.Since(t)
		}
		push = append(push, ms(dp))
		cut = append(cut, ms(dc))
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{
		"ncp.sweep_ms":          median(sweep),
		"detect.ppr_push_ms":    median(push),
		"graphalgo.sweepcut_ms": median(cut),
	})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
