// Command circleload is the load generator for circled: it replays a
// synthetic mix of /v1/score requests against a running service and
// reports latency quantiles, error rates and cache effectiveness, so
// the service has a measurable SLO from day one.
//
// Usage:
//
//	circleload [-addr http://127.0.0.1:8779] [-n 200] [-c 8]
//	           [-seed 1] [-dup 0.25] [-null-samples 0]
//	           [-timeout 30s] [-json] [-v]
//
// The mix is built from the service's own GET /v1/datasets inventory:
// each request scores a randomly chosen (dataset, group) pair, and with
// probability -dup repeats the previous request of the mix verbatim.
// With -c 1 the repeat arrives after its answer, so it exercises the
// server's result cache; with more clients the previous request may
// still be in flight on another client, so a few repeats coalesce.
// Coalescing in bulk needs many concurrent duplicates, as in
// make loadsmoke's 100 clients. Every request is one POST /v1/score.
//
// The report covers client-side p50/p95/p99/max latency of successful
// requests, the response-class breakdown (2xx / 429 shed / other 4xx /
// 5xx / transport errors), observed X-Coalesced and cache-hit responses,
// and — read back from GET /metrics — the server-side serve/score timer
// quantiles, the serve.coalesced counter and the
// serve.cache.{hits,misses,evictions} counters with the derived hit
// rate.
//
// Exit status is non-zero when any 5xx or transport error was observed,
// so CI can assert the zero-5xx SLO with the exit code alone; 429s are
// the service working as designed (load shed), not a failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"gpluscircles/internal/cliflag"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/par"
	"gpluscircles/internal/serve/api"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "circleload:", err)
		os.Exit(1)
	}
}

// target is one (dataset, group) scoring query of the request mix.
type target struct {
	dataset string
	group   string
}

// result is one request's outcome: the HTTP status (0 for transport
// errors), whether the response was coalesced or served from the result
// cache, and the client-observed latency.
type result struct {
	status    int
	coalesced bool
	cached    bool
	latency   time.Duration
}

func run() error {
	var (
		addr        = cliflag.Addr(flag.CommandLine, "http://127.0.0.1:8779")
		n           = flag.Int("n", 200, "total number of score requests")
		c           = flag.Int("c", 8, "concurrent client connections")
		seed        = cliflag.Seed(flag.CommandLine)
		jsonOut     = cliflag.JSON(flag.CommandLine)
		verbose     = cliflag.Verbose(flag.CommandLine)
		dup         = flag.Float64("dup", 0.25, "probability of repeating the previous request of the mix (a repeat that arrives after its answer is a result-cache hit)")
		nullSamples = flag.Int("null-samples", 0, "null_samples parameter sent with every request")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	)
	flag.Parse()
	if *n <= 0 || *c <= 0 {
		return fmt.Errorf("-n and -c must be positive")
	}

	client := &http.Client{Timeout: *timeout}
	targets, err := fetchTargets(client, *addr)
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "circleload: %d scoreable groups across the inventory\n", len(targets))
	}

	// The whole mix is drawn up front from one seeded stream, so a run
	// is reproducible and workers share no RNG.
	rng := rand.New(rand.NewSource(*seed))
	bodies := make([][]byte, *n)
	for i := range bodies {
		if i > 0 && rng.Float64() < *dup {
			bodies[i] = bodies[i-1]
			continue
		}
		t := targets[rng.Intn(len(targets))]
		req := api.ScoreRequest{
			Dataset:     t.dataset,
			Group:       t.group,
			NullSamples: *nullSamples,
			Seed:        *seed,
		}
		b, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("marshal request: %w", err)
		}
		bodies[i] = b
	}

	results := make([]result, *n)
	workers := par.Workers(*n, *c)
	start := obs.Now()
	par.For(*n, workers, func(_, i int) { results[i] = fire(client, *addr, bodies[i]) })
	wall := obs.Since(start)

	rep := summarize(results, workers, wall)
	attachServerMetrics(client, *addr, &rep)
	if err := render(os.Stdout, &rep, *jsonOut); err != nil {
		return err
	}
	if rep.Server5xx > 0 || rep.Transport > 0 {
		return fmt.Errorf("%d 5xx and %d transport errors observed", rep.Server5xx, rep.Transport)
	}
	return nil
}

// fetchTargets builds the request population from the service inventory.
func fetchTargets(client *http.Client, addr string) ([]target, error) {
	resp, err := client.Get(addr + "/v1/datasets")
	if err != nil {
		return nil, fmt.Errorf("inventory: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("inventory: %s", resp.Status)
	}
	var infos []api.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("inventory: %w", err)
	}
	var targets []target
	for _, info := range infos {
		for _, g := range info.Groups {
			targets = append(targets, target{dataset: info.Name, group: g})
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("inventory: no scoreable groups")
	}
	return targets, nil
}

// fire sends one score request and classifies the outcome.
func fire(client *http.Client, addr string, body []byte) result {
	start := obs.Now()
	resp, err := client.Post(addr+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{status: 0, latency: obs.Since(start)}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return result{
		status:    resp.StatusCode,
		coalesced: resp.Header.Get("X-Coalesced") == "true",
		cached:    resp.Header.Get("X-Cache") == "hit",
		latency:   obs.Since(start),
	}
}

// Quantiles are latency percentiles in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Report is the machine-readable load-test summary (-json output).
type Report struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_rps"`

	OK        int `json:"ok"`
	Shed429   int `json:"shed_429"`
	Client4xx int `json:"client_4xx"`
	Server5xx int `json:"server_5xx"`
	Transport int `json:"transport_errors"`
	Coalesced int `json:"coalesced_responses"`
	Cached    int `json:"cached_responses"`

	LatencyMs Quantiles `json:"latency_ms"`

	// Server-side view, read back from /metrics after the run.
	ServerScoreMs        *Quantiles `json:"server_score_ms,omitempty"`
	ServerCoalesced      int64      `json:"server_coalesced"`
	ServerCacheHits      int64      `json:"server_cache_hits"`
	ServerCacheMisses    int64      `json:"server_cache_misses"`
	ServerCacheEvictions int64      `json:"server_cache_evictions"`
	ServerCacheHitRate   float64    `json:"server_cache_hit_rate"`
}

// summarize aggregates the per-request outcomes.
func summarize(results []result, workers int, wall time.Duration) Report {
	rep := Report{Requests: len(results), Concurrency: workers, WallSeconds: wall.Seconds()}
	if wall > 0 {
		rep.Throughput = float64(len(results)) / wall.Seconds()
	}
	var okLat []float64
	for _, r := range results {
		switch {
		case r.status == 0:
			rep.Transport++
		case r.status >= 500:
			rep.Server5xx++
		case r.status == http.StatusTooManyRequests:
			rep.Shed429++
		case r.status >= 400:
			rep.Client4xx++
		default:
			rep.OK++
			okLat = append(okLat, float64(r.latency.Nanoseconds())/1e6)
		}
		if r.coalesced {
			rep.Coalesced++
		}
		if r.cached {
			rep.Cached++
		}
	}
	rep.LatencyMs = exactQuantiles(okLat)
	return rep
}

// exactQuantiles computes sample quantiles (nearest-rank) of the sorted
// latencies.
func exactQuantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q*float64(len(ms))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ms) {
			i = len(ms) - 1
		}
		return ms[i]
	}
	return Quantiles{P50: at(0.50), P95: at(0.95), P99: at(0.99), Max: ms[len(ms)-1]}
}

// attachServerMetrics reads /metrics and folds the server-side score
// timer, coalescing counter and cache counters into the report (best
// effort: a missing or unreadable endpoint leaves the fields empty).
func attachServerMetrics(client *http.Client, addr string, rep *Report) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var payload api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return
	}
	rep.ServerCoalesced = payload.Metrics.Counters["serve.coalesced"]
	rep.ServerCacheHits = payload.Metrics.Counters["serve.cache.hits"]
	rep.ServerCacheMisses = payload.Metrics.Counters["serve.cache.misses"]
	rep.ServerCacheEvictions = payload.Metrics.Counters["serve.cache.evictions"]
	if total := rep.ServerCacheHits + rep.ServerCacheMisses; total > 0 {
		rep.ServerCacheHitRate = float64(rep.ServerCacheHits) / float64(total)
	}
	if ts, ok := payload.Metrics.Timers["serve/score"]; ok && ts.Count > 0 {
		rep.ServerScoreMs = &Quantiles{
			P50: ts.QuantileNs(0.50) / 1e6,
			P95: ts.QuantileNs(0.95) / 1e6,
			P99: ts.QuantileNs(0.99) / 1e6,
			Max: float64(ts.MaxNs) / 1e6,
		}
	}
}

// render prints the report, human-readable or as JSON.
func render(w io.Writer, rep *Report, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "requests:    %d (concurrency %d) in %.2fs — %.1f req/s\n",
		rep.Requests, rep.Concurrency, rep.WallSeconds, rep.Throughput)
	fmt.Fprintf(w, "responses:   %d ok, %d shed (429), %d client 4xx, %d server 5xx, %d transport errors\n",
		rep.OK, rep.Shed429, rep.Client4xx, rep.Server5xx, rep.Transport)
	fmt.Fprintf(w, "coalesced:   %d responses carried X-Coalesced (server counter: %d)\n",
		rep.Coalesced, rep.ServerCoalesced)
	fmt.Fprintf(w, "cached:      %d responses served from cache (server: %d hits / %d misses / %d evictions, hit rate %.1f%%)\n",
		rep.Cached, rep.ServerCacheHits, rep.ServerCacheMisses, rep.ServerCacheEvictions, 100*rep.ServerCacheHitRate)
	fmt.Fprintf(w, "latency ms:  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99, rep.LatencyMs.Max)
	if rep.ServerScoreMs != nil {
		fmt.Fprintf(w, "server exec: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f (serve/score timer)\n",
			rep.ServerScoreMs.P50, rep.ServerScoreMs.P95, rep.ServerScoreMs.P99, rep.ServerScoreMs.Max)
	}
	return nil
}
