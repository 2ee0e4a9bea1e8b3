// Command circled is the long-lived analysis service of the
// reproduction: it loads the synthetic data sets once into a shared,
// memoized core.Suite and serves community-scoring queries over HTTP.
//
// Usage:
//
//	circled [-addr :8779] [-scale 1.0] [-seed 1] [-workers 0]
//	        [-queue 64] [-cache 1024] [-timeout 30s] [-drain-timeout 10s]
//	        [-max-null-samples 128] [-manifest circled.manifest.jsonl]
//	        [-experiments a,b] [-warm] [-v]
//
// Endpoints (wire contract in internal/serve/api):
//
//	POST /v1/score                  score a circle/community or an
//	                                arbitrary node set (by external IDs)
//	POST /v1/ncp                    network community profile sweep
//	                                (gated as the ncp-sweep experiment)
//	GET  /v1/characterize/{dataset} Table II-style graph profile (cached)
//	GET  /v1/datasets               data-set + group inventory
//	GET  /v1/experiments            experiments registry + per-run enablement
//	GET  /healthz                   liveness + drain state
//	GET  /metrics                   obs.Recorder snapshot as JSON
//
// The service runs a bounded worker pool with explicit backpressure
// (429 + Retry-After once the queue bound is hit) behind one request
// table: identical in-flight requests coalesce onto one execution
// (counted in /metrics as serve.coalesced), and finished 200 answers
// stay resident on a bounded LRU list (-cache entries, negative keeps
// none; hits/misses/evictions in /metrics). It drains gracefully on
// SIGTERM or SIGINT: the listener stops accepting, in-flight work
// finishes, and a final run manifest (JSONL, same schema as
// circlebench's) is flushed to -manifest.
// Responses are deterministic for a given (scale, seed): the same query
// always returns the same bytes, which is what makes coalescing and
// caching sound.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"gpluscircles/internal/cliflag"
	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/ncp"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "circled:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = cliflag.Addr(flag.CommandLine, ":8779")
		scale          = flag.Float64("scale", 1.0, "data-set scale factor (1.0 = laptop default, ~1/25 of the paper)")
		seed           = cliflag.Seed(flag.CommandLine)
		workers        = cliflag.Workers(flag.CommandLine)
		verbose        = cliflag.Verbose(flag.CommandLine)
		queueDepth     = flag.Int("queue", 64, "accepted-but-unstarted request bound; a full queue sheds load with 429")
		cacheSize      = flag.Int("cache", 1024, "result-cache entry bound (negative disables the cache, leaving coalescing alone)")
		timeout        = flag.Duration("timeout", 30*time.Second, "per-request deadline, queue wait included")
		drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound after SIGTERM")
		maxNullSamples = flag.Int("max-null-samples", 128, "cap on the per-request null_samples parameter")
		manifest       = flag.String("manifest", "circled.manifest.jsonl", "write the final run manifest (JSONL) to this file on exit (empty = disabled)")
		warm           = flag.Bool("warm", true, "generate every data set before accepting traffic, concurrently over GOMAXPROCS")
		exps           = cliflag.Experiments(flag.CommandLine)
	)
	// Parse through CommandLine directly so tests (ContinueOnError) see
	// flag errors instead of having flag.Parse drop them.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}

	// SIGTERM/SIGINT start the graceful drain: stop accepting, finish
	// in-flight work, then flush the final manifest below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec := obs.NewRecorder()
	graphalgo.SetRecorder(rec)
	suite := core.NewSuite(core.SuiteOptions{
		Scale:    *scale,
		Seed:     *seed,
		Recorder: rec,
	})

	if *warm {
		if err := warmSuite(os.Stderr, suite, *verbose); err != nil {
			return err
		}
	}

	// The NCP route is mounted unconditionally and gates itself per
	// request, so a 400 with the experiment-gated code (rather than a
	// bare 404) tells clients what to enable.
	srv, err := serve.NewServer(serve.Options{
		Suite:          suite,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		MaxNullSamples: *maxNullSamples,
		Recorder:       rec,
		Experiments:    *exps,
		ExtraRoutes: map[string]http.Handler{
			"POST /v1/ncp": ncp.Handler(suite, *exps),
		},
	})
	if err != nil {
		return err
	}
	if exps.Enabled(experiments.NCPSweep.Name) {
		fmt.Fprintln(os.Stderr, "circled: ncp-sweep enabled (POST /v1/ncp is live)")
	}

	// Bind here rather than in ListenAndServe so the resolved address is
	// printable — with -addr :0 the kernel picks the port, and scripts
	// (scripts/loadsmoke.sh) scrape it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	fmt.Fprintf(os.Stderr, "circled: listening on %s (scale %g, seed %d)\n", ln.Addr(), *scale, *seed)
	serveErr := srv.ServeListener(ctx, ln)

	if *manifest != "" {
		if err := writeRunManifest(*manifest, rec, runMeta(rec, *scale, *seed, *workers, *queueDepth, serveErr)); err != nil {
			if serveErr == nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "circled: manifest:", err)
		} else if *verbose {
			fmt.Fprintf(os.Stderr, "circled: manifest written to %s\n", *manifest)
		}
	}
	return serveErr
}

// warmSuite generates every data set before the server accepts traffic
// (core.Suite.Warm fans the generations out over GOMAXPROCS) and, when
// verbose, then reports each one to w in registry order.
func warmSuite(w io.Writer, suite *core.Suite, verbose bool) error {
	if err := suite.Warm(); err != nil {
		return err
	}
	if verbose {
		for _, name := range core.DatasetNames() {
			fmt.Fprintf(w, "circled: warmed %s\n", name)
		}
	}
	return nil
}

// runMeta assembles the final manifest header for this service run.
func runMeta(rec *obs.Recorder, scale float64, seed int64, workers, queueDepth int, serveErr error) obs.Meta {
	meta := obs.Meta{
		Tool: "circled",
		Seed: seed,
		Options: map[string]string{
			"scale":   strconv.FormatFloat(scale, 'g', -1, 64),
			"workers": strconv.Itoa(workers),
			"queue":   strconv.Itoa(queueDepth),
		},
	}
	if start := rec.Start(); !start.IsZero() {
		meta.Start = start.UTC().Format(time.RFC3339)
	}
	if serveErr != nil {
		meta.Partial = true
		meta.Err = serveErr.Error()
	}
	return meta
}

// writeRunManifest flushes the recorder's state as a JSONL manifest.
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
