// Package serve turns the reproduction into a long-lived analysis
// service: it loads the synthetic data sets once into a shared
// core.Suite and answers per-group community-scoring queries over HTTP,
// the same request/response shape as an inference server. The wire
// contract — every /v1 request, response and error body — lives in the
// internal/serve/api package; this package owns only the execution
// machinery behind it.
//
// Production shape is the point of the package:
//
//   - A bounded worker pool executes the heavy work (scoring, null-model
//     sampling, graph characterization). The queue in front of it is the
//     explicit backpressure surface: when it is full the service sheds
//     load with 429 + Retry-After instead of accepting unbounded work.
//   - Identical in-flight requests are coalesced singleflight-style,
//     keyed by dataset + canonical set hash + scoring functions +
//     null-model parameters, so a thundering herd of the same query
//     costs one execution. Coalesced hits are counted in /metrics
//     (serve.coalesced) and marked with an X-Coalesced response header;
//     response bodies are byte-identical across the herd.
//   - A bounded LRU result cache sits in front of the pool, keyed by the
//     same canonical request hash: coalescing collapses concurrent
//     duplicates, the cache collapses sequential ones. Hits return the
//     original computation's exact bytes with an X-Cache: hit header and
//     are counted as serve.cache.{hits,misses,evictions}.
//   - Every queued call carries a context with the server's per-request
//     deadline; the deadline covers queue wait, and cancellation (client
//     gone, server draining) propagates into the null-model estimator's
//     sample-boundary checks (nullmodel.NewEmpiricalEstimatorCtx).
//   - Shutdown is a graceful drain: stop accepting, finish in-flight and
//     queued work, join the workers. The owning binary then flushes a
//     final obs manifest.
//
// Endpoints: POST /v1/score, GET /v1/characterize/{dataset},
// GET /v1/datasets, GET /v1/experiments, GET /healthz, GET /metrics.
// Every non-2xx response is api's uniform JSON error envelope with a
// machine-readable code. /v1/experiments lists the experiments registry with this
// process's per-run enablement (Options.Experiments, wired from
// -experiments), so an operator can see which no-compatibility-promise
// surfaces a running service has opted into.
//
// Determinism note: responses are pure functions of the request and the
// suite's (scale, seed) — scores never depend on worker scheduling,
// coalescing, caching, or instrumentation, which is what makes both
// coalescing and the result cache sound.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/serve/api"
	"gpluscircles/internal/synth"
)

// Options configures a Server, options-first like core.SuiteOptions:
// zero values select the documented defaults.
type Options struct {
	// Suite is the shared, memoized experiment suite the service scores
	// against. Required; the suite's lazy caches make concurrent request
	// handling safe and its seed makes responses deterministic.
	Suite *core.Suite
	// Workers bounds the execution pool; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted calls;
	// <= 0 selects 64. A full queue is answered with 429 + Retry-After.
	QueueDepth int
	// CacheSize bounds the LRU result cache (entries); 0 selects 1024,
	// negative disables caching entirely.
	CacheSize int
	// RequestTimeout bounds one call from enqueue to completion
	// (queue wait included); <= 0 selects 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain; <= 0 selects 10s.
	DrainTimeout time.Duration
	// RetryAfterSeconds is advertised in the Retry-After header of 429
	// responses; <= 0 selects 1.
	RetryAfterSeconds int
	// MaxNullSamples caps the per-request null_samples parameter so one
	// request cannot monopolize the pool; <= 0 selects 128.
	MaxNullSamples int
	// Recorder receives the service metrics. Nil creates a private
	// recorder: unlike the batch binaries the service always records,
	// because /metrics is part of its API surface.
	Recorder *obs.Recorder
	// Experiments is the set of experiments this process was started
	// with (the -experiments flag). Nil means none enabled; the set is
	// reported by GET /v1/experiments.
	Experiments experiments.Set

	// ExtraRoutes mounts additional handlers on the server's mux, keyed
	// by ServeMux pattern (e.g. "POST /v1/ncp"). This is the seam gated
	// packages use to add endpoints without the stable serving layer
	// importing them — the owning binary wires the handler in. Extra
	// routes bypass the worker pool, queue and result cache; handlers
	// are responsible for their own bounds and gating.
	ExtraRoutes map[string]http.Handler

	// workerHook, when set (tests only), runs in the worker goroutine
	// after a call is dequeued and before it executes — the test lever
	// for holding the pool busy deterministically.
	workerHook func(c *call)
}

// withDefaults resolves zero values to the documented defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.RetryAfterSeconds <= 0 {
		o.RetryAfterSeconds = 1
	}
	if o.MaxNullSamples <= 0 {
		o.MaxNullSamples = 128
	}
	if o.Recorder == nil {
		o.Recorder = obs.NewRecorder()
	}
	return o
}

// Server is the analysis service. Create with NewServer, start the pool
// with Start (ListenAndServe does both), and stop with Shutdown. A
// Server is safe for concurrent use by the http stack.
type Server struct {
	opts Options
	// suite is swappable at runtime (SwapSuite); handlers load it once
	// per request. gen is bumped on every swap and folded into every
	// result-cache and coalescing key, so a reloaded suite can never
	// serve bytes computed against its predecessor.
	suite atomic.Pointer[core.Suite]
	gen   atomic.Uint64
	rec   *obs.Recorder
	mux   *http.ServeMux
	cache *resultCache

	queue   chan *call
	qmu     sync.Mutex // guards qclosed and the send-vs-close race
	qclosed bool
	wg      sync.WaitGroup

	started  atomic.Bool
	draining atomic.Bool

	flight flightGroup

	groupsMu sync.Mutex
	groups   map[string]map[string][]graph.VID // dataset -> group -> members

	mRequests  *obs.Counter
	mScored    *obs.Counter
	mCoalesced *obs.Counter
	mRejected  *obs.Counter
	mErrors    *obs.Counter
	gQueue     *obs.Gauge
	tRequest   *obs.Timer
	tScore     *obs.Timer
}

// NewServer builds the service around a shared suite. Call Start (or
// ListenAndServe) before serving traffic.
func NewServer(opts Options) (*Server, error) {
	if opts.Suite == nil {
		return nil, errors.New("serve: Options.Suite is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		rec:   opts.Recorder,
		cache: newResultCache(opts.CacheSize, opts.Recorder),
		queue: make(chan *call, opts.QueueDepth),

		mRequests:  opts.Recorder.Counter("serve.requests"),
		mScored:    opts.Recorder.Counter("serve.scored"),
		mCoalesced: opts.Recorder.Counter("serve.coalesced"),
		mRejected:  opts.Recorder.Counter("serve.rejected"),
		mErrors:    opts.Recorder.Counter("serve.errors"),
		gQueue:     opts.Recorder.Gauge("serve.queue.depth"),
		tRequest:   opts.Recorder.Timer("serve/request"),
		tScore:     opts.Recorder.Timer("serve/score"),
	}
	s.suite.Store(opts.Suite)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/score", s.handleScore)
	mux.HandleFunc("GET /v1/characterize/{dataset}", s.handleCharacterize)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Sorted so duplicate-pattern panics from ServeMux are deterministic.
	patterns := make([]string, 0, len(opts.ExtraRoutes))
	for p := range opts.ExtraRoutes {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	for _, p := range patterns {
		mux.Handle(p, opts.ExtraRoutes[p])
	}
	s.mux = mux
	return s, nil
}

// SwapSuite replaces the suite serving new requests and bumps the cache
// generation, invalidating every previously cached body and in-flight
// coalescing key: ROADMAP's stale-bytes hazard — reload the suite,
// keep serving old cache entries — is structurally impossible because
// the generation is part of every key. In-flight requests finish
// against the suite they loaded; the group index is rebuilt lazily
// against the new suite.
func (s *Server) SwapSuite(suite *core.Suite) {
	if suite == nil {
		return
	}
	s.suite.Store(suite)
	s.gen.Add(1)
	s.groupsMu.Lock()
	s.groups = nil
	s.groupsMu.Unlock()
}

// genKey prefixes a cache/coalescing key with the current suite
// generation. Every dispatch key passes through here, so a key can
// never outlive the suite whose bytes it names.
func (s *Server) genKey(key string) string {
	return "g" + strconv.FormatUint(s.gen.Load(), 10) + "/" + key
}

// Handler returns the service's HTTP handler, for embedding under
// httptest or an outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Recorder returns the recorder backing /metrics, so the owning binary
// can flush a final manifest on exit.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Draining reports whether the server has begun its shutdown drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Start launches the worker pool. Idempotent; must be called before the
// handler can answer pooled endpoints.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		//lint:ignore goroutineleak workers are joined by Shutdown via wg.Wait; the pool outlives Start by design
		go s.worker()
	}
}

// worker drains the queue until it is closed, executing one call at a
// time: it times the execution, publishes the result to every coalesced
// waiter, retires the flight key, and feeds the result cache — 200
// bodies only, so every future hit returns the exact bytes computed
// here.
func (s *Server) worker() {
	defer s.wg.Done()
	for c := range s.queue {
		s.gQueue.Add(-1)
		if hook := s.opts.workerHook; hook != nil {
			hook(c)
		}
		start := obs.Now()
		body, status := c.run(c.ctx)
		s.tScore.Observe(obs.Since(start))
		if status >= 500 {
			s.mErrors.Inc()
		}
		if status == http.StatusOK {
			s.cache.add(c.key, body)
		}
		c.finish(body, status)
		s.flight.forget(c.key)
	}
}

// enqueue offers the call to the pool without blocking. It reports false
// when the queue is full or already closed — the backpressure signal the
// handlers translate into 429/503.
func (s *Server) enqueue(c *call) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qclosed {
		return false
	}
	select {
	case s.queue <- c:
		s.gQueue.Add(1)
		return true
	default:
		return false
	}
}

// Shutdown drains the service: no new work is accepted, queued and
// in-flight calls finish, and the workers are joined. The context bounds
// the wait. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.qmu.Lock()
	if !s.qclosed {
		s.qclosed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// ListenAndServe binds addr and serves until ctx is cancelled (the
// owning binary typically wires SIGTERM/SIGINT into ctx via
// signal.NotifyContext), then drains gracefully: the listener stops
// accepting, in-flight requests finish within DrainTimeout, and the
// worker pool is joined. A clean drain returns nil.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is ListenAndServe over an existing listener (tests use
// it with an ephemeral port). It owns the listener.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	s.Start()
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errc:
		// Listener failed outright; fall through to drain the pool.
	case <-ctx.Done():
		// Flip the drain flag before the HTTP-layer shutdown so new
		// requests are shed with 503 immediately while in-flight ones
		// (already past the check) run to completion.
		s.draining.Store(true)
		shCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		serveErr = hs.Shutdown(shCtx)
		cancel()
		<-errc // join the Serve goroutine (http.ErrServerClosed)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil && serveErr == nil {
		serveErr = err
	}
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	return serveErr
}

// dispatch funnels one request through the result cache, coalescing,
// the bounded queue and the wait loop. key identifies the work for
// caching and coalescing; mkRun builds the executable for the leader.
// The response (or backpressure error) is written to w.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, key string, mkRun func() func(ctx context.Context) ([]byte, int)) {
	start := obs.Now()
	if body, ok := s.cache.get(key); ok {
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		s.tRequest.Observe(obs.Since(start))
		return
	}
	c, leader := s.flight.join(key, func() *call {
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		return &call{
			key:    key,
			ctx:    ctx,
			cancel: cancel,
			run:    mkRun(),
			done:   make(chan struct{}),
		}
	})
	if leader {
		if !s.enqueue(c) {
			// Publish the rejection on the call so any follower that
			// joined between join and forget completes too, then answer
			// the leader. Queue-full and draining are both shed here.
			status, code, msg := http.StatusTooManyRequests, api.CodeQueueFull, "queue full"
			if s.draining.Load() {
				status, code, msg = http.StatusServiceUnavailable, api.CodeDraining, "draining"
			}
			c.finish(api.ErrorBody(code, msg), status)
			s.flight.forget(key)
			s.mRejected.Inc()
		}
	} else {
		s.mCoalesced.Inc()
		w.Header().Set("X-Coalesced", "true")
	}

	select {
	case <-c.done:
		s.tRequest.Observe(obs.Since(start))
		if c.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
		}
		if c.status == http.StatusOK {
			s.mScored.Inc()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(c.status)
		_, _ = w.Write(c.body)
	case <-r.Context().Done():
		// Client gone: abandon the wait; the last departing waiter
		// cancels the shared call so the pool stops wasting work.
		c.leave()
		s.tRequest.Observe(obs.Since(start))
	}
}

// handleHealthz reports liveness and the drain state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleMetrics renders the recorder snapshot as JSON, expvar-style.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.MetricsResponse{
		UptimeSeconds: obs.Since(s.rec.Start()).Seconds(),
		Metrics:       s.rec.Snapshot(),
	})
}

// handleDatasets inventories the suite's data sets (generating them on
// first touch — circled pre-warms at startup so steady-state calls are
// cheap). circleload uses this to build its request mix.
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mRequests.Inc()
	out := make([]api.DatasetInfo, 0, len(core.DatasetNames()))
	for _, name := range core.DatasetNames() {
		ds, err := s.suite.Load().DatasetByName(name)
		if err != nil {
			s.mErrors.Inc()
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		info := api.DatasetInfo{
			Name:     name,
			Display:  ds.Name,
			Vertices: ds.Graph.NumVertices(),
			Edges:    ds.Graph.NumEdges(),
			Directed: ds.Graph.Directed(),
			Kind:     ds.Kind.String(),
			Groups:   make([]string, 0, len(ds.Groups)),
		}
		for _, grp := range ds.Groups {
			info.Groups = append(info.Groups, grp.Name)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExperiments lists the experiments registry with the per-run
// enablement, sorted by name (experiments.All's order).
func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	s.mRequests.Inc()
	all := experiments.All()
	out := make([]api.ExperimentInfo, 0, len(all))
	for _, exp := range all {
		out = append(out, api.ExperimentInfo{
			Name:    exp.Name,
			Doc:     exp.Doc,
			Enabled: s.opts.Experiments.Enabled(exp.Name),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// writeError writes the uniform JSON error envelope (api.ErrorResponse)
// with the given status and machine-readable code. Every non-2xx
// response of the service flows through here, errorBody, or a
// pre-encoded envelope published on a call.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(api.ErrorBody(code, msg))
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// suiteDataset exists so score.go can share the one lookup-and-classify
// path for dataset resolution errors.
func (s *Server) suiteDataset(name string) (*synth.Dataset, *httpErr) {
	ds, err := s.suite.Load().DatasetByName(name)
	if err != nil {
		if errors.Is(err, core.ErrUnknownDataset) {
			return nil, &httpErr{status: http.StatusNotFound, code: api.CodeUnknownDataset, msg: err.Error()}
		}
		return nil, &httpErr{status: http.StatusInternalServerError, code: api.CodeInternal, msg: err.Error()}
	}
	return ds, nil
}
