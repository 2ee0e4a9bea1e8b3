// detection tours the circle/community detection API: label propagation
// inside an ego network (the paper's "ego-centred view" outlook),
// conductance-sweep local communities seeded at circle members, and
// balanced-F1 evaluation against the owner's curated circles.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"gpluscircles/internal/core"
	"gpluscircles/internal/detect"
	"gpluscircles/internal/report"
	"gpluscircles/internal/score"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	suite := core.NewSuite(core.SuiteOptions{Scale: 0.4, Seed: 5})
	ds, err := suite.GPlus()
	if err != nil {
		return err
	}
	fmt.Printf("data set: %d vertices, %d arcs, %d circles, %d ego networks\n\n",
		ds.Graph.NumVertices(), ds.Graph.NumEdges(), len(ds.Groups), len(ds.EgoNets))
	rng := rand.New(rand.NewSource(17))

	// 1. Detect circles inside each ego network and score the match.
	tbl := report.NewTable("Label propagation per ego network",
		"Ego", "Alters", "Detected", "Curated", "Balanced F1")
	var f1Sum float64
	var evaluated int
	for _, ego := range ds.EgoNets[:min(6, len(ds.EgoNets))] {
		detected, err := detect.DetectEgoCircles(ds.Graph, ego.Members, detect.LabelPropagationOptions{}, rng)
		if err != nil {
			return err
		}
		var truth []score.Group
		for _, grp := range ds.Groups {
			if strings.HasPrefix(grp.Name, ego.Name+"/") {
				truth = append(truth, grp)
			}
		}
		cell := "n/a"
		if len(truth) > 0 && len(detected) > 0 {
			m := detect.MatchGroups(truth, detected)
			cell = report.Fmt(m.F1)
			f1Sum += m.F1
			evaluated++
		}
		tbl.AddRow(ego.Name,
			report.FmtInt(int64(len(ego.Members)-1)),
			report.FmtInt(int64(len(detected))),
			report.FmtInt(int64(len(truth))), cell)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if evaluated > 0 {
		fmt.Printf("\nmean balanced F1: %.3f — detection only partially recovers curated\n"+
			"circles, because curation encodes facets, not modularity.\n\n", f1Sum/float64(evaluated))
	}

	// 2. Local community around one circle member via conductance sweep.
	grp := ds.Groups[0]
	seed := grp.Members[0]
	sweep, cond, err := detect.ConductanceSweep(ds.Graph, seed, 2*len(grp.Members))
	if err != nil {
		return err
	}
	ctx := score.NewContext(ds.Graph)
	circleCond := score.Evaluate(ctx, grp.Members, []score.Func{score.Conductance()})["conductance"]
	fmt.Printf("conductance sweep from a member of %s:\n", grp.Name)
	fmt.Printf("  circle: %d members, conductance %.3f\n", len(grp.Members), circleCond)
	fmt.Printf("  sweep:  %d members, conductance %.3f\n", len(sweep.Members), cond)
	fmt.Println("\nThe best local community is much more closed than the curated circle —")
	fmt.Println("the paper's distinction between circles and communities, per user.")
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
