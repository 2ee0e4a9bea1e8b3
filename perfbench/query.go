package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/score"
	"gpluscircles/internal/serve/api"
)

// request is one prepared call of a query sequence.
type request struct {
	path string
	body []byte
	// group indexes env.groups; seed is the request's null/NCP seed.
	group int
	seed  int64
}

// queryWorkload describes one closed-loop workload against circled.
type queryWorkload struct {
	// scale of the served data (circled -scale) and of the oracle suite.
	scale float64
	// flags are the circled flags beyond -addr, -seed 1, -manifest and
	// -scale.
	flags []string
	// procs is circled's GOMAXPROCS; 0 keeps the default (all cores).
	procs int
	// datasets whose groups the sequence draws from.
	datasets []string
	clients  int
	// rate is the nominal op rate (ops/s) on a 2-core VM; the timed op
	// count of a run is rate x -seconds, a fixed number, so every run of
	// a seed sends the same sequence.
	rate float64
	// warmup is the number of untimed requests per client and launch.
	warmup int
	// sequence builds client c's requests (warm-up first).
	sequence func(env *queryEnv, seed int64, c, n int) []request
	// decode parses a 200 body, as a client of the API would; it is part
	// of the timed op. check then validates the answer against the oracle.
	decode func(body []byte) (any, error)
	check  func(env *queryEnv, rq request, resp any) error
}

// args is the circled command line of the workload.
func (w *queryWorkload) args() []string {
	return append([]string{"-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}, w.flags...)
}

// serverLaunches is how many fresh servers an untraced run starts. Each
// serves an equal share of the timed sequence after its own warm-up, and
// setup_s and peak_rss_mb are medians over them.
const serverLaunches = 3

// tailQuantile is the percentile reported as latency_tail_ms (see
// README.md for why p90).
const tailQuantile = 0.90

const nullSamples = 2

var queryWorkloads = map[string]*queryWorkload{
	"query-mix": {
		scale:    1,
		flags:    []string{"-warm"},
		datasets: []string{"gplus", "twitter", "livejournal", "orkut"},
		clients:  2,
		rate:     5300,
		warmup:   2000,
		sequence: mixSequence,
		decode:   decodeScore,
		check:    checkScore,
	},
	"query-null": {
		scale:    0.5,
		flags:    []string{"-warm"},
		datasets: []string{"gplus"},
		clients:  1,
		rate:     7.5,
		warmup:   4,
		sequence: nullSequence,
		decode:   decodeScore,
		check:    checkScore,
	},
	"query-ncp": {
		scale:    1,
		flags:    []string{"-warm", "-experiments", "ncp-sweep"},
		procs:    1,
		datasets: []string{"gplus"},
		clients:  1,
		rate:     140,
		warmup:   20,
		sequence: ncpSequence,
		decode:   decodeNCP,
		check:    checkNCP,
	},
}

// groupRef is one scorable group with its oracle answer.
type groupRef struct {
	dataset, name string
	want          api.ScoreResponse // analytic null
}

// queryEnv is the in-process oracle: an identically seeded suite.
type queryEnv struct {
	groups []groupRef
}

// newQueryEnv generates the suite the server holds and scores every
// group of the workload's data sets in process with score.Evaluate.
func newQueryEnv(w *queryWorkload) (*queryEnv, error) {
	suite := core.NewSuite(core.SuiteOptions{Scale: w.scale, Seed: 1})
	env := &queryEnv{}
	fns := score.PaperFuncs()
	for _, name := range w.datasets {
		ds, err := suite.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		sctx := score.NewContext(ds.Graph)
		for _, grp := range ds.Groups {
			cut := graph.Cut(ds.Graph, graph.SetOf(ds.Graph, grp.Members))
			env.groups = append(env.groups, groupRef{
				dataset: name,
				name:    grp.Name,
				want: api.ScoreResponse{
					Dataset:       name,
					Group:         grp.Name,
					N:             cut.N,
					InternalEdges: cut.Internal,
					BoundaryEdges: cut.Boundary,
					Null:          "analytic",
					Scores:        score.Evaluate(sctx, grp.Members, fns),
				},
			})
		}
	}
	if len(env.groups) == 0 {
		return nil, errors.New("no groups to query")
	}
	return env, nil
}

// mustJSON marshals a request body built from plain wire types.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // api request types always marshal
	}
	return b
}

// requestSeed gives request i of a run a distinct positive seed (seeds
// are capped by maxSeed), so the result cache and the coalescer never
// answer it.
func requestSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i) + 1
}

// mixSequence: analytic /v1/score over every group of the four group
// data sets; 25% of requests replay the client's previous one
// (circleload's -dup default).
func mixSequence(env *queryEnv, seed int64, c, n int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
	bodies := make(map[int][]byte)
	seq := make([]request, n)
	for i := range seq {
		if i > 0 && rng.Float64() < 0.25 {
			seq[i] = seq[i-1]
			continue
		}
		g := rng.Intn(len(env.groups))
		if bodies[g] == nil {
			ref := env.groups[g]
			bodies[g] = mustJSON(api.ScoreRequest{Dataset: ref.dataset, Group: ref.name})
		}
		seq[i] = request{path: "/v1/score", body: bodies[g], group: g}
	}
	return seq
}

// nullSequence: one Google+ circle per request under the empirical null
// with a distinct seed.
func nullSequence(env *queryEnv, seed int64, c, n int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
	seq := make([]request, n)
	for i := range seq {
		g := rng.Intn(len(env.groups))
		s := requestSeed(seed, i)
		ref := env.groups[g]
		seq[i] = request{path: "/v1/score", group: g, seed: s, body: mustJSON(api.ScoreRequest{
			Dataset: ref.dataset, Group: ref.name, NullSamples: nullSamples, Seed: s,
		})}
	}
	return seq
}

// ncpSequence: one Google+ NCP sweep per request with default seeds and
// eps and a distinct seed.
func ncpSequence(_ *queryEnv, seed int64, _, n int) []request {
	seq := make([]request, n)
	for i := range seq {
		s := requestSeed(seed, i)
		seq[i] = request{path: "/v1/ncp", seed: s, body: mustJSON(api.NCPRequest{Dataset: "gplus", Seed: s})}
	}
	return seq
}

func decodeScore(body []byte) (any, error) {
	var r api.ScoreResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode score response: %w", err)
	}
	return &r, nil
}

func decodeNCP(body []byte) (any, error) {
	var r api.NCPResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode ncp response: %w", err)
	}
	return &r, nil
}

// sameBits reports bit-identical floats: the server and the oracle run
// the same deterministic code, so anything else is a wrong answer.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkScore compares a /v1/score body with the analytic oracle. Under
// the empirical null only modularity may differ, and it must be finite.
func checkScore(env *queryEnv, rq request, resp any) error {
	got := resp.(*api.ScoreResponse)
	want := env.groups[rq.group].want
	if got.Dataset != want.Dataset || got.Group != want.Group || got.N != want.N ||
		got.InternalEdges != want.InternalEdges || got.BoundaryEdges != want.BoundaryEdges {
		return fmt.Errorf("%s/%s: cut (n=%d, in=%d, out=%d), oracle (n=%d, in=%d, out=%d)",
			want.Dataset, want.Group, got.N, got.InternalEdges, got.BoundaryEdges,
			want.N, want.InternalEdges, want.BoundaryEdges)
	}
	empirical := rq.seed != 0
	if empirical && (got.Null != "empirical" || got.NullSamples != nullSamples || got.Seed != rq.seed) {
		return fmt.Errorf("%s/%s: null %q samples %d seed %d, want empirical %d seed %d",
			want.Dataset, want.Group, got.Null, got.NullSamples, got.Seed, nullSamples, rq.seed)
	}
	if !empirical && got.Null != "analytic" {
		return fmt.Errorf("%s/%s: null %q, want analytic", want.Dataset, want.Group, got.Null)
	}
	if len(got.Scores) != len(want.Scores) {
		return fmt.Errorf("%s/%s: %d scores, want %d", want.Dataset, want.Group, len(got.Scores), len(want.Scores))
	}
	for _, f := range score.PaperFuncs() {
		g, ok := got.Scores[f.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s/%s: missing score %s", want.Dataset, want.Group, f.Name)
		case empirical && f.Name == "modularity":
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return fmt.Errorf("%s/%s: modularity %v is not finite", want.Dataset, want.Group, g)
			}
		case !sameBits(g, want.Scores[f.Name]):
			return fmt.Errorf("%s/%s: %s = %v, oracle %v", want.Dataset, want.Group, f.Name, g, want.Scores[f.Name])
		}
	}
	return nil
}

// checkNCP validates an NCP curve: the request's dataset and default
// parameters, sizes strictly ascending, conductance in [0, 1].
func checkNCP(_ *queryEnv, _ request, resp any) error {
	got := resp.(*api.NCPResponse)
	if got.Dataset != "gplus" || got.Seeds != 32 || !sameBits(got.Eps, 1e-4) || len(got.Points) == 0 {
		return fmt.Errorf("ncp: dataset %q seeds %d eps %v with %d points", got.Dataset, got.Seeds, got.Eps, len(got.Points))
	}
	for i, p := range got.Points {
		if i > 0 && p.Size <= got.Points[i-1].Size {
			return fmt.Errorf("ncp: size %d after %d", p.Size, got.Points[i-1].Size)
		}
		if !(p.Conductance >= 0 && p.Conductance <= 1) {
			return fmt.Errorf("ncp: conductance %v at size %d", p.Conductance, p.Size)
		}
	}
	return nil
}

// pass is one request sequence against one fresh server.
type pass struct {
	lat     []float64 // timed op latencies, ms
	wall    time.Duration
	cpu     time.Duration // circled CPU during the timed phase
	rssMB   float64       // circled's high-water RSS after the timed phase
	metrics [2]obs.Snapshot
}

// timedOps is the fixed timed op count of a run, a multiple of
// clients x serverLaunches so that every launch serves an equal share.
func (w *queryWorkload) timedOps(seconds int) int {
	unit := w.clients * serverLaunches
	n := int(math.Round(w.rate*float64(seconds))) / unit * unit
	return max(n, 10*unit)
}

// sequences builds every client's request sequence: the warm-up, then
// timed/clients timed requests.
func (w *queryWorkload) sequences(env *queryEnv, seed int64, timed int) [][]request {
	seqs := make([][]request, w.clients)
	for c := range seqs {
		seqs[c] = w.sequence(env, seed, c, w.warmup+timed/w.clients)
	}
	return seqs
}

// runPass sends every client's sequence through srv in a closed loop:
// the first w.warmup requests untimed, the rest timed. Failed ops are
// counted on res. A single client's timed response bodies are written to
// digest in sequence order (digest may be nil).
func runPass(ctx context.Context, w *queryWorkload, env *queryEnv, srv *server, seqs [][]request, digest hash.Hash, res *result) (*pass, error) {
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, DisableCompression: true},
	}
	defer hc.CloseIdleConnections()

	lats := make([][]float64, w.clients)
	errs := make([][]error, w.clients)

	phase := func(from, to int, timedPhase bool) {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, rq := range seqs[c][from:to] {
					if ctx.Err() != nil {
						errs[c] = append(errs[c], ctx.Err())
						return
					}
					start := obs.Now()
					body, err := post(hc, srv.base+rq.path, rq.body)
					var resp any
					if err == nil {
						resp, err = w.decode(body)
					}
					lat := obs.Since(start)
					if err == nil {
						err = w.check(env, rq, resp)
					}
					if err != nil {
						errs[c] = append(errs[c], err)
					}
					if timedPhase {
						lats[c] = append(lats[c], ms(lat))
						if digest != nil && w.clients == 1 {
							digest.Write(body) // single client: sequence order
						}
					}
				}
			}(c)
		}
		wg.Wait()
	}

	p := &pass{}
	phase(0, w.warmup, false)
	var err error
	if p.metrics[0], err = srv.metrics(hc); err != nil {
		return nil, err
	}
	cpu0, _, err := srv.procStat()
	if err != nil {
		return nil, err
	}
	start := obs.Now()
	phase(w.warmup, len(seqs[0]), true)
	p.wall = obs.Since(start)
	cpu1, rss, err := srv.procStat()
	if err != nil {
		return nil, err
	}
	if p.metrics[1], err = srv.metrics(hc); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.cpu, p.rssMB = cpu1-cpu0, rss
	for c := range seqs {
		p.lat = append(p.lat, lats[c]...)
		res.Attempted += len(seqs[c])
		for _, e := range errs[c] {
			res.fail("%v", e)
		}
	}
	return p, nil
}

// post sends one JSON request and returns the 200 body.
func post(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// checkDigest compares the SHA-256 of an output with the one an earlier
// run recorded under name, recording it if none. name must pin
// everything that fixes the output: workload, seed and size.
func checkDigest(cfg config, name string, sum []byte, res *result) error {
	dir := filepath.Join(cfg.work, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	digest := hex.EncodeToString(sum)
	path := filepath.Join(dir, name+".sha256")
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(digest), 0o644)
	case err != nil:
		return err
	case string(prev) != digest:
		res.fail("%s: output digest %s differs from an earlier run's %s", name, digest, prev)
	}
	return nil
}

// queryDigestName keys the response digest of a single-client sequence.
func queryDigestName(cfg config, timed int) string {
	return fmt.Sprintf("%s-seed%d-n%d", cfg.workload, cfg.seed, timed)
}

// runQuery is the untraced run of a query workload. Each of the
// serverLaunches fresh servers gets the warm-up and then the next equal
// share of the timed sequence, so every launch yields a set-up time and
// a high-water RSS read after serving, and the latencies pool all shares.
func runQuery(ctx context.Context, cfg config, w *queryWorkload) (*result, error) {
	env, err := newQueryEnv(w)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	timed := w.timedOps(cfg.seconds)
	full := w.sequences(env, cfg.seed, timed)
	share := timed / w.clients / serverLaunches
	digest := sha256.New()
	var (
		setups, rss, lat []float64
		wall, cpu        time.Duration
	)
	for i := 0; i < serverLaunches; i++ {
		seqs := make([][]request, w.clients)
		for c, seq := range full {
			from := w.warmup + i*share
			seqs[c] = append(seq[:w.warmup:w.warmup], seq[from:from+share]...)
		}
		srv, err := startServer(ctx, cfg.bin, w)
		if err != nil {
			return nil, err
		}
		p, err := runPass(ctx, w, env, srv, seqs, digest, res)
		srv.stop()
		if err != nil {
			return nil, err
		}
		setups, rss = append(setups, srv.setup.Seconds()), append(rss, p.rssMB)
		lat = append(lat, p.lat...)
		wall, cpu = wall+p.wall, cpu+p.cpu
	}
	if w.clients == 1 {
		if err := checkDigest(cfg, queryDigestName(cfg, timed), digest.Sum(nil), res); err != nil {
			return nil, err
		}
	}
	ops := float64(len(lat))
	res.set("setup_s", median(setups), "s")
	res.set("latency_p50_ms", median(lat), "ms")
	res.set("latency_tail_ms", quantile(lat, tailQuantile), "ms")
	res.set("throughput_ops", ops/wall.Seconds(), "1/s")
	res.set("cpu_ms_per_op", cpu.Seconds()*1000/ops, "ms")
	res.set("peak_rss_mb", median(rss), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed ops; p75 %.4g, p90 %.4g, p95 %.4g, p99 %.4g ms; tail = p%g\n",
		cfg.workload, len(lat), quantile(lat, 0.75), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), tailQuantile*100)
	return res, nil
}
