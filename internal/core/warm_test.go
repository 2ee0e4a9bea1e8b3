package core

import (
	"fmt"
	"reflect"
	"testing"

	"gpluscircles/internal/obs"
	"gpluscircles/internal/par/partest"
	"gpluscircles/internal/synth"
)

// TestWarmMatchesSerial: the data sets Warm generates concurrently equal
// those of serial accessor calls on a fresh suite — graph, ID table and
// groups — at every GOMAXPROCS tested, since each generator runs once
// from its own seed whatever the scheduling.
func TestWarmMatchesSerial(t *testing.T) {
	for _, scale := range []float64{0.5, 1} {
		opts := SuiteOptions{Scale: scale, Seed: 1}
		serial := NewSuite(opts)
		want := make([]*synth.Dataset, len(DatasetNames()))
		for i, get := range []func() (*synth.Dataset, error){
			serial.GPlus, serial.Twitter, serial.LiveJournal, serial.Orkut, serial.Crawl,
		} {
			ds, err := get()
			if err != nil {
				t.Fatalf("scale %g: serial %s: %v", scale, DatasetNames()[i], err)
			}
			want[i] = ds
		}
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("scale=%g/procs=%d", scale, procs), func(t *testing.T) {
				partest.GOMAXPROCS(t, procs)
				s := NewSuite(opts)
				if err := s.Warm(); err != nil {
					t.Fatal(err)
				}
				for i, name := range DatasetNames() {
					got, err := s.DatasetByName(name)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameDataset(got, want[i]); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			})
		}
	}
}

// sameDataset reports the first field in which two data sets differ.
func sameDataset(got, want *synth.Dataset) error {
	switch {
	case got.Name != want.Name || got.Kind != want.Kind:
		return fmt.Errorf("name/kind %q/%v, want %q/%v", got.Name, got.Kind, want.Name, want.Kind)
	case got.Graph.Directed() != want.Graph.Directed():
		return fmt.Errorf("directed = %v", got.Graph.Directed())
	case !reflect.DeepEqual(got.Graph.ExternalIDs(), want.Graph.ExternalIDs()):
		return fmt.Errorf("ID tables differ")
	case !reflect.DeepEqual(got.Graph.EdgeList(), want.Graph.EdgeList()):
		return fmt.Errorf("edge lists differ")
	case !reflect.DeepEqual(got.Groups, want.Groups):
		return fmt.Errorf("groups differ")
	case !reflect.DeepEqual(got.EgoNets, want.EgoNets) || !reflect.DeepEqual(got.Owners, want.Owners) ||
		!reflect.DeepEqual(got.EgoMembership, want.EgoMembership):
		return fmt.Errorf("ego networks differ")
	}
	return nil
}

// TestWarmSpans: Warm records one "warm" span with the five "generate"
// spans as its children, each inside its interval; a second Warm finds
// every data set memoized and generates nothing.
func TestWarmSpans(t *testing.T) {
	rec := obs.NewRecorder()
	s := NewSuite(SuiteOptions{Scale: 0.15, Seed: 5, Recorder: rec})
	for range 2 {
		if err := s.Warm(); err != nil {
			t.Fatal(err)
		}
	}
	var warms, gens []obs.SpanRecord
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case "warm":
			warms = append(warms, sp)
		case "generate":
			gens = append(gens, sp)
		}
	}
	if len(warms) != 2 || len(gens) != len(DatasetNames()) {
		t.Fatalf("%d warm and %d generate spans, want 2 and %d", len(warms), len(gens), len(DatasetNames()))
	}
	first := warms[0] // spans are recorded as they end
	seen := map[string]bool{}
	for _, g := range gens {
		seen[g.Attrs["dataset"]] = true
		if g.Parent != first.ID {
			t.Errorf("generate/%s parent %d, want the first warm span %d", g.Attrs["dataset"], g.Parent, first.ID)
		}
		if g.StartNs < first.StartNs || g.StartNs+g.DurNs > first.StartNs+first.DurNs {
			t.Errorf("generate/%s [%d, +%d] outside warm [%d, +%d]", g.Attrs["dataset"], g.StartNs, g.DurNs, first.StartNs, first.DurNs)
		}
	}
	for _, name := range DatasetNames() {
		if !seen[name] {
			t.Errorf("no generate span for %s", name)
		}
	}
}
