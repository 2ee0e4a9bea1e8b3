// Command circlebench regenerates every table and figure of the paper
// "Are Circles Communities?" on the synthetic data sets, or a single
// experiment selected by ID.
//
// Usage:
//
//	circlebench [-scale 1.0] [-seed 1] [-null-samples 0] [-workers 0] [-experiment id]
//	circlebench [-manifest run.manifest.jsonl] [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace out.trace]
//	circlebench -list [-json]
//	circlebench compare [-fail-over=pct] OLD.json NEW.json
//	circlebench compare RUN.manifest.jsonl
//
// Every run writes a JSONL run manifest (seed, options, git revision,
// per-experiment spans, metric snapshot) next to the report — see
// -manifest; pass -manifest "" to disable. Interrupting a run (Ctrl-C)
// cancels it cleanly at the next experiment boundary and still writes a
// partial manifest. The -cpuprofile/-memprofile/-trace flags wire
// runtime/pprof and runtime/trace around the whole run.
//
// The compare subcommand with two arguments diffs two recorded
// benchmark runs (the BENCH_*.json files produced by `make bench`, i.e.
// `go test -json` streams) and prints per-benchmark ns/op, B/op, and
// allocs/op deltas. With -fail-over=N it additionally exits non-zero
// when any shared benchmark's ns/op, B/op, or allocs/op regressed by
// more than N percent (0 B/op or 0 allocs/op going nonzero always
// breaches) — the perf ratchet for CI — unless the two runs' benchenv
// lines differ, in which case the breach is downgraded to an advisory
// (cross-machine deltas reflect hardware, not code). With one argument
// it summarizes a run manifest: meta, per-experiment wall times, stage
// spans, and hot-path counters.
//
// Selected on its own, the cohesion experiment is gated behind
// -experiments=triangle-cohesion, and the ncp experiment (network
// community profile sweep, tuned by -ncp-seeds and -ncp-eps) behind
// -experiments=ncp-sweep (see internal/experiments); experimental
// surfaces carry no compatibility promise. The ncp experiment is listed
// by -list but is not part of the full run.
//
// Experiment IDs map to the paper's artifacts (table2, table3, fig2,
// fig3, fig4, fig5, fig6, directedness, ablation-null, ablation-sampler,
// extended-scores). Without -experiment, all run in paper order, the
// experiments fanned out over -workers goroutines (0 = GOMAXPROCS);
// -workers=1 runs them one after another. The batches inside an
// experiment (scoring, null sampling, NCP pushes) fan out over
// GOMAXPROCS at every -workers value. The report bytes are identical
// either way at a given seed, and never depend on instrumentation being
// on or off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"gpluscircles/internal/cliflag"
	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/ncp"
	"gpluscircles/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "circlebench:", err)
		os.Exit(1)
	}
}

func run() error {
	// The compare subcommand has its own flag set and positional syntax;
	// dispatch it before the main flag set sees the arguments.
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		fs := flag.NewFlagSet("compare", flag.ContinueOnError)
		failOver := fs.Float64("fail-over", 0,
			"exit non-zero when any shared benchmark's ns/op, B/op, or allocs/op regresses by more than this percentage (0 = report only; env mismatch downgrades to advisory)")
		if err := fs.Parse(os.Args[2:]); err != nil {
			return err
		}
		switch fs.NArg() {
		case 1:
			return summarizeManifest(os.Stdout, fs.Arg(0))
		case 2:
			return runCompare(os.Stdout, fs.Arg(0), fs.Arg(1), *failOver)
		default:
			return fmt.Errorf("usage: circlebench compare [-fail-over=pct] OLD.json NEW.json | circlebench compare RUN.manifest.jsonl")
		}
	}

	var (
		scale       = flag.Float64("scale", 1.0, "data-set scale factor (1.0 = laptop default, ~1/25 of the paper)")
		seed        = cliflag.Seed(flag.CommandLine)
		nullSamples = flag.Int("null-samples", 0, "Viger-Latapy null-model samples for Modularity (0 = analytic Chung-Lu)")
		workers     = cliflag.Workers(flag.CommandLine)
		jsonOut     = cliflag.JSON(flag.CommandLine)
		verbose     = cliflag.Verbose(flag.CommandLine)
		experiment  = flag.String("experiment", "", "run only this experiment ID")
		list        = flag.Bool("list", false, "list experiment IDs with one-line descriptions and exit")
		csvDir      = flag.String("csv", "", "also write the figure data series as CSV files into this directory")
		manifest    = flag.String("manifest", "circlebench.manifest.jsonl", "write the run manifest (JSONL) to this file (empty = disabled)")
		ncpSeeds    = cliflag.NCPSeeds(flag.CommandLine)
		ncpEps      = cliflag.NCPEps(flag.CommandLine)
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		tracefile   = flag.String("trace", "", "write a runtime/trace execution trace to this file")
		exps        = cliflag.Experiments(flag.CommandLine)
	)
	// Parse through CommandLine directly so tests (ContinueOnError) see
	// flag errors instead of having flag.Parse drop them.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}

	// The ncp experiment lives outside the core registry so that the
	// default run-all report (and its golden bytes) stays independent of
	// the experimental surface: it is listed after the registry and runs
	// only when selected explicitly.
	ncpExp := ncp.Experiment(ncp.ExperimentOptions{Seeds: *ncpSeeds, Eps: *ncpEps})
	if *list {
		return listExperiments(os.Stdout, append(core.Experiments(), ncpExp), *jsonOut)
	}

	// Selecting a gated experiment explicitly requires its opt-in. Full
	// paper runs are not gated: the registry order and the golden report
	// depend on every experiment rendering, and the gated entries'
	// laptop-scale defaults are cheap there.
	switch *experiment {
	case "cohesion":
		if err := exps.Require(experiments.TriangleCohesion); err != nil {
			return err
		}
	case "ncp":
		if err := exps.Require(experiments.NCPSweep); err != nil {
			return err
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "circlebench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "circlebench: memprofile:", err)
			}
		}()
	}

	// Ctrl-C cancels between experiments; the completed prefix of the
	// report is already on stdout and the manifest records the partial
	// run below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var rec *obs.Recorder
	if *manifest != "" || *verbose {
		rec = obs.NewRecorder()
		graphalgo.SetRecorder(rec)
	}

	suite := core.NewSuite(core.SuiteOptions{
		Scale:            *scale,
		Seed:             *seed,
		NullModelSamples: *nullSamples,
		Recorder:         rec,
	})

	var runErr error
	if *experiment != "" {
		e, err := core.ExperimentByID(*experiment)
		if *experiment == ncpExp.ID {
			e, err = ncpExp, nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("=== %s [%s] ===\n\n", e.Title, e.ID)
		runErr = suite.RunExperimentCtx(ctx, e, os.Stdout)
	} else {
		runErr = suite.RunAllParallelCtx(ctx, os.Stdout, *workers)
	}

	if runErr == nil && *csvDir != "" {
		if err := core.WriteFigureCSVs(suite, *csvDir); err != nil {
			return err
		}
		fmt.Printf("\nfigure CSV series written to %s\n", *csvDir)
	}

	if *manifest != "" {
		meta := runMeta(rec, *scale, *seed, *nullSamples, *workers, *experiment, runErr)
		if err := writeRunManifest(*manifest, rec, meta); err != nil {
			if runErr == nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "circlebench: manifest:", err)
		} else if *verbose {
			fmt.Fprintf(os.Stderr, "circlebench: manifest written to %s\n", *manifest)
		}
	}
	if *verbose && rec.Enabled() {
		dumpSnapshot(os.Stderr, rec)
	}
	return runErr
}

// listExperiments renders exps, one experiment per line (or as a JSON
// array with -json).
func listExperiments(w *os.File, exps []core.Experiment, jsonOut bool) error {
	if jsonOut {
		type item struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		}
		items := make([]item, len(exps))
		for i, e := range exps {
			items[i] = item{ID: e.ID, Title: e.Title}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(items)
	}
	for _, e := range exps {
		if _, err := fmt.Fprintf(w, "%-22s %s\n", e.ID, e.Title); err != nil {
			return err
		}
	}
	return nil
}

// runMeta assembles the manifest header for this invocation.
func runMeta(rec *obs.Recorder, scale float64, seed int64, nullSamples, workers int, experiment string, runErr error) obs.Meta {
	meta := obs.Meta{
		Tool: "circlebench",
		Git:  gitDescribe(),
		Seed: seed,
		Options: map[string]string{
			"scale":        strconv.FormatFloat(scale, 'g', -1, 64),
			"null-samples": strconv.Itoa(nullSamples),
			"workers":      strconv.Itoa(workers),
			"numcpu":       strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		},
	}
	if experiment != "" {
		meta.Options["experiment"] = experiment
	}
	if start := rec.Start(); !start.IsZero() {
		meta.Start = start.UTC().Format(time.RFC3339)
	}
	if runErr != nil {
		meta.Partial = true
		meta.Err = runErr.Error()
	}
	return meta
}

// gitDescribe best-effort identifies the producing tree; empty when git
// or the repository is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writeRunManifest writes the recorder's manifest to path (atomically
// enough for a single consumer: truncate + write + close).
func writeRunManifest(path string, rec *obs.Recorder, meta obs.Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if err := obs.WriteManifest(f, rec.Manifest(meta)); err != nil {
		f.Close()
		return fmt.Errorf("manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// dumpSnapshot prints the final metric snapshot to stderr for -v runs.
func dumpSnapshot(w *os.File, rec *obs.Recorder) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	fmt.Fprintln(w, "circlebench: metrics snapshot:")
	if err := enc.Encode(rec.Snapshot()); err != nil {
		fmt.Fprintln(w, "circlebench: snapshot:", err)
	}
}
