package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/score"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timingWriter times every write of the report into its file.
type timingWriter struct {
	w io.Writer
	d time.Duration
	n int64
}

func (t *timingWriter) Write(p []byte) (int, error) {
	start := obs.Now()
	n, err := t.w.Write(p)
	t.d += obs.Since(start)
	t.n += int64(n)
	return n, err
}

// tracedOp is the in-process serial report op.
type tracedOp struct {
	out   []byte
	wall  time.Duration
	suite *core.Suite // its memoized data sets feed the layer probes
}

// traceReportOp runs the full report serially in process, as
// circlebench -workers 1 does, with a span around each public call:
// data-set generation, the two graph profiles the report reads, and
// every experiment in registry order. Whatever the spans miss is
// core.unattributed_ms.
func traceReportOp(ctx context.Context, cfg config, res *result) (*tracedOp, error) {
	rec := obs.NewRecorder()
	graphalgo.SetRecorder(rec)
	defer graphalgo.SetRecorder(nil)
	f, err := os.CreateTemp(cfg.work, "report-*.txt")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	tw := &timingWriter{w: f}

	start := obs.Now()
	suite, named, err := generateSuite(cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	res.set("synth.generate_ms", ms(named), "ms")
	for _, name := range []string{"gplus", "crawl"} {
		ds, err := suite.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		t := obs.Now()
		if _, err := suite.Profile(ds); err != nil {
			return nil, err
		}
		d := obs.Since(t)
		named += d
		res.set("core.profile."+name+"_ms", ms(d), "ms")
	}
	for _, e := range core.Experiments() {
		if _, err := fmt.Fprintf(tw, "\n=== %s [%s] ===\n\n", e.Title, e.ID); err != nil {
			return nil, err
		}
		t := obs.Now()
		if err := suite.RunExperimentCtx(ctx, e, tw); err != nil {
			return nil, err
		}
		d := obs.Since(t)
		named += d
		res.set("core.experiment."+e.ID+"_ms", ms(d), "ms")
	}
	wall := obs.Since(start)
	res.set("core.op_ms", ms(wall), "ms")
	res.set("core.unattributed_ms", ms(wall-named), "ms")
	res.set("report.write_ms", ms(tw.d), "ms")
	res.set("report.bytes", float64(tw.n), "bytes")
	res.set("graphalgo.bfs.visits", float64(rec.Snapshot().Counters["graphalgo.bfs.visits"]), "count")
	fmt.Fprintf(os.Stderr, "perfbench: traced serial report op %.0f ms, named spans cover %.1f%%\n",
		ms(wall), 100*ms(named)/ms(wall))

	if err := f.Close(); err != nil {
		return nil, err
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	return &tracedOp{out: out, wall: wall, suite: suite}, nil
}

// probeLayers times the public calls of the layers the serial op does
// not split out, each on the data the workload that moves it uses.
func probeLayers(ctx context.Context, cfg config, suite *core.Suite, res *result) error {
	var build, fit, dist, clust time.Duration
	opts := suite.Options()
	for _, name := range core.DatasetNames() {
		ds, err := suite.DatasetByName(name)
		if err != nil {
			return err
		}
		g := ds.Graph
		ids, edges := g.ExternalIDs(), g.EdgeList()

		t := obs.Now()
		b := graph.NewBuilder(g.Directed())
		for _, id := range ids {
			b.AddVertex(id)
		}
		for _, e := range edges {
			b.AddEdge(ids[e.From], ids[e.To])
		}
		rebuilt, err := b.Build()
		build += obs.Since(t)
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", name, err)
		}
		if rebuilt.NumVertices() != g.NumVertices() || rebuilt.NumEdges() != g.NumEdges() {
			return fmt.Errorf("rebuild %s: %d/%d vertices/edges, want %d/%d", name,
				rebuilt.NumVertices(), rebuilt.NumEdges(), g.NumVertices(), g.NumEdges())
		}

		t = obs.Now()
		if _, err := core.FitDegrees(g, 0); err != nil {
			return fmt.Errorf("fit %s: %w", name, err)
		}
		fit += obs.Since(t)

		rng := rand.New(rand.NewSource(cfg.seed))
		t = obs.Now()
		if _, err := graphalgo.SampledDistances(g, opts.DistanceSources, rng); err != nil {
			return fmt.Errorf("distances %s: %w", name, err)
		}
		dist += obs.Since(t)
		t = obs.Now()
		if _, err := graphalgo.SampledClustering(g, opts.ClusteringSamples, rng); err != nil {
			return fmt.Errorf("clustering %s: %w", name, err)
		}
		clust += obs.Since(t)
	}
	res.set("graph.build_ms", ms(build), "ms")
	res.set("powerlaw.fit_ms", ms(fit), "ms")
	res.set("graphalgo.distances_ms", ms(dist), "ms")
	res.set("graphalgo.clustering_ms", ms(clust), "ms")

	if err := probeNull(cfg, res); err != nil {
		return err
	}
	if err := probeScore(res); err != nil {
		return err
	}
	return probeNCP(ctx, cfg, res)
}

// nullProbeEstimators is how many estimators probeNull builds.
const nullProbeEstimators = 16

// probeNull builds empirical estimators of the query-null request shape
// (two samples, distinct seeds, the suite's shared arena) on the
// query-null Google+ graph.
func probeNull(cfg config, res *result) error {
	rec := obs.NewRecorder()
	suite := core.NewSuite(core.SuiteOptions{Scale: queryWorkloads["query-null"].scale, Seed: 1, Recorder: rec})
	gp, err := suite.GPlus()
	if err != nil {
		return err
	}
	arena := suite.NullArena(gp.Graph)
	var est []float64
	for i := 0; i < nullProbeEstimators; i++ {
		t := obs.Now()
		e, err := nullmodel.NewEmpiricalEstimator(gp.Graph, nullmodel.EstimatorOptions{
			Samples:  nullSamples,
			Seed:     requestSeed(cfg.seed, i),
			Arena:    arena,
			Recorder: rec,
		})
		if err != nil {
			return err
		}
		est = append(est, ms(obs.Since(t)))
		e.Close()
	}
	c := rec.Snapshot().Counters
	res.set("nullmodel.estimator_ms", median(est), "ms")
	res.set("nullmodel.samples", float64(c["nullmodel.samples"]), "count")
	res.set("nullmodel.rewire.attempts", float64(c["nullmodel.rewire.attempts"]), "count")
	res.set("nullmodel.rewire.accept_ratio", ratio(c["nullmodel.rewire.attempts"]-c["nullmodel.rewire.rejects"], c["nullmodel.rewire.attempts"]), "ratio")
	res.set("graph.arena.hit_ratio", ratio(c["graph.arena.hits"], c["graph.arena.hits"]+c["graph.arena.misses"]), "ratio")
	return nil
}

// ratio is num/den, 0 for an empty base.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// scoreProbeRounds is how often probeScore scores every group.
const scoreProbeRounds = 5

// probeScore scores every group of the query-mix data sets through the
// suite's instrumented contexts and reads the score/<fn> timers.
func probeScore(res *result) error {
	rec := obs.NewRecorder()
	mix := queryWorkloads["query-mix"]
	suite := core.NewSuite(core.SuiteOptions{Scale: mix.scale, Seed: 1, Recorder: rec})
	fns := score.PaperFuncs()
	for _, name := range mix.datasets {
		ds, err := suite.DatasetByName(name)
		if err != nil {
			return err
		}
		sctx := suite.ScoreContext(ds.Graph)
		for r := 0; r < scoreProbeRounds; r++ {
			score.EvaluateGroups(sctx, ds.Groups, fns)
		}
	}
	timers := rec.Snapshot().Timers
	for _, f := range fns {
		res.set("score."+f.Name+"_ns", timers["score/"+f.Name].MeanNs, "ns")
	}
	return nil
}

// probeNCP runs ncpprobe, which times the NCP layers in its own process
// (the ncp package is experiment-gated; see ncpprobe/main.go).
func probeNCP(ctx context.Context, cfg config, res *result) error {
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, "ncpprobe"), "-seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("ncpprobe: %w", err)
	}
	var m map[string]float64
	if err := json.Unmarshal(bytes.TrimSpace(out), &m); err != nil {
		return fmt.Errorf("ncpprobe output: %w", err)
	}
	for _, name := range []string{"ncp.sweep_ms", "detect.ppr_push_ms", "graphalgo.sweepcut_ms"} {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("ncpprobe did not report %s", name)
		}
		res.set(name, v, "ms")
	}
	return nil
}

// serveMetrics derives the serving-tier metrics of a pass from its
// /metrics deltas and its client latencies.
func serveMetrics(p *pass, res *result) {
	before, after := p.metrics[0], p.metrics[1]
	req := timerDelta(before, after, "serve/request")
	sc := timerDelta(before, after, "serve/score")
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	res.set("serve.request_p50_us", req.QuantileNs(0.5)/1e3, "us")
	res.set("serve.score_p50_us", sc.QuantileNs(0.5)/1e3, "us")
	res.set("serve.queue_wait_us", float64(req.SumNs-sc.SumNs)/float64(req.Count)/1e3, "us")
	hits := delta("serve.cache.hits")
	res.set("serve.cache.hit_ratio", ratio(hits, hits+delta("serve.cache.misses")), "ratio")
	res.set("serve.coalesced", float64(delta("serve.coalesced")), "count")
	res.set("serve.rejected", float64(delta("serve.rejected")), "count")
	// The histogram p50 is only good to its power-of-two bucket, so the
	// overhead compares means, which the timer sums give exactly.
	var clientSum float64
	for _, l := range p.lat {
		clientSum += l
	}
	res.set("client.overhead_us", clientSum*1e3/float64(len(p.lat))-float64(req.SumNs)/float64(req.Count)/1e3, "us")
}

// serveProbeOps is the timed length of the serve probe pass.
const serveProbeOps = 4000

// probeServe measures the serving tier for workloads that bypass it: a
// short query-mix pass against a fresh circled.
func probeServe(ctx context.Context, cfg config, res *result) error {
	mix := *queryWorkloads["query-mix"]
	mix.warmup = 500
	env, err := newQueryEnv(&mix)
	if err != nil {
		return err
	}
	srv, err := startServer(ctx, cfg.bin, &mix)
	if err != nil {
		return err
	}
	p, err := runPass(ctx, &mix, env, srv, mix.sequences(env, cfg.seed, serveProbeOps), nil, res)
	srv.stop()
	if err != nil {
		return err
	}
	serveMetrics(p, res)
	return nil
}

// traceQuery is the traced run of a query workload: an untraced and a
// traced pass of the same sequence on fresh servers, then every layer
// probe, the serial report op and its -workers 1 reference included, so
// each traced run reports every layer and checks every op.
func traceQuery(ctx context.Context, cfg config, w *queryWorkload) (*result, error) {
	env, err := newQueryEnv(w)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	timed := w.timedOps(cfg.seconds)
	seqs := w.sequences(env, cfg.seed, timed)
	var (
		passes  [2]*pass
		digests [2]hash.Hash
	)
	for i := range passes {
		srv, err := startServer(ctx, cfg.bin, w)
		if err != nil {
			return nil, err
		}
		digests[i] = sha256.New()
		passes[i], err = runPass(ctx, w, env, srv, seqs, digests[i], res)
		srv.stop()
		if err != nil {
			return nil, err
		}
	}
	untraced, traced := passes[0], passes[1]
	if w.clients == 1 {
		d0, d1 := digests[0].Sum(nil), digests[1].Sum(nil)
		if !bytes.Equal(d0, d1) {
			res.fail("response digests of two passes differ: %x, %x", d0, d1)
		}
		if err := checkDigest(cfg, queryDigestName(cfg, timed), d1, res); err != nil {
			return nil, err
		}
	}
	res.set("trace.overhead_ms", median(traced.lat)-median(untraced.lat), "ms")
	if timerDelta(traced.metrics[0], traced.metrics[1], "serve/request").Count > 0 {
		serveMetrics(traced, res)
	} else if err := probeServe(ctx, cfg, res); err != nil {
		return nil, err
	}
	op, _, err := tracedReport(ctx, cfg, res)
	if err != nil {
		return nil, err
	}
	return res, probeLayers(ctx, cfg, op.suite, res)
}
