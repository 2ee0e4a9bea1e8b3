package core

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"gpluscircles/internal/par"
)

// RunAllParallelCtx executes every registered experiment over a bounded
// worker pool of the given size (workers <= 0 selects GOMAXPROCS;
// workers == 1 falls back to the serial RunAllCtx). Each experiment
// renders into a private in-memory buffer, and the sections are emitted
// to w in registry order, so the report is byte-identical to the serial
// run at the same seed.
//
// Correctness relies on two properties maintained by the rest of the
// package: the Suite's lazy caches are generated exactly once under
// concurrency, and every experiment derives its randomness from a
// private Suite.RNG stream, so no experiment perturbs another.
//
// Cancellation is observed between experiments: once ctx is cancelled,
// every experiment not yet started is marked cancelled, while in-flight
// experiments run to completion (they are the atomic unit). The emitted
// report then holds the completed prefix in registry order followed by
// the wrapped ctx error.
//
// Error semantics mirror RunAllCtx: the first failing experiment in
// registry order aborts the report after its (possibly partial) section
// has been written; later sections are discarded.
func (s *Suite) RunAllParallelCtx(ctx context.Context, w io.Writer, workers int) error {
	exps := Experiments()
	workers = par.Workers(len(exps), workers)
	if workers <= 1 {
		return s.RunAllCtx(ctx, w)
	}

	run := s.opts.Recorder.StartSpan("run")
	defer run.End()

	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	par.For(len(exps), workers, func(_, idx int) {
		// An experiment picked up after cancellation is marked, so the
		// emission loop stops at the completed prefix.
		if err := ctx.Err(); err != nil {
			errs[idx] = err
			return
		}
		errs[idx] = s.runSpanned(run, exps[idx], &bufs[idx])
	})

	for i, e := range exps {
		if _, err := fmt.Fprintf(w, "\n=== %s [%s] ===\n\n", e.Title, e.ID); err != nil {
			return fmt.Errorf("experiment header: %w", err)
		}
		// Emit whatever the experiment managed to render before failing,
		// matching the bytes a serial run would have produced.
		if _, err := io.Copy(w, &bufs[i]); err != nil {
			return fmt.Errorf("experiment %s output: %w", e.ID, err)
		}
		if errs[i] != nil {
			err := fmt.Errorf("experiment %s: %w", e.ID, errs[i])
			run.Fail(err)
			return err
		}
	}
	return nil
}
