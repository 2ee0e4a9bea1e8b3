package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/serve/api"
)

// testSuite is shared across tests: the suite's caches are read-only
// after generation and every server may safely score against one
// instance, which keeps the package's test wall-clock dominated by
// actual serving logic rather than repeated data-set generation.
var (
	testSuiteOnce sync.Once
	testSuiteVal  *core.Suite
)

func testSuite() *core.Suite {
	testSuiteOnce.Do(func() {
		testSuiteVal = core.NewSuite(core.SuiteOptions{
			Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50,
		})
	})
	return testSuiteVal
}

// newTestServer builds a started server over the shared suite and
// registers its drain with test cleanup.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Suite = testSuite()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

// postScore sends one score request to the httptest server and returns
// status, body and the coalesced marker.
func postScore(t *testing.T, client *http.Client, url string, req api.ScoreRequest) (int, []byte, bool) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url+"/v1/score", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Coalesced") == "true"
}

// firstGroup returns a (group name, external member IDs) pair of the
// named data set, for exercising both request shapes.
func firstGroup(t testing.TB, name string) (string, []int64) {
	t.Helper()
	ds, err := testSuite().DatasetByName(name)
	if err != nil {
		t.Fatalf("dataset %s: %v", name, err)
	}
	grp := ds.Groups[0]
	ids := make([]int64, len(grp.Members))
	for i, v := range grp.Members {
		ids[i] = ds.Graph.ExternalID(v)
	}
	return grp.Name, ids
}

// TestScoreEndpoint: the two request shapes (named group, explicit
// member IDs) must resolve to the same canonical set and return the
// same scores; responses carry the paper's cut nomenclature.
func TestScoreEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	group, ids := firstGroup(t, "gplus")

	status, byGroup, _ := postScore(t, ts.Client(), ts.URL, api.ScoreRequest{Dataset: "gplus", Group: group})
	if status != http.StatusOK {
		t.Fatalf("by group: status %d, body %s", status, byGroup)
	}
	var resp api.ScoreResponse
	if err := json.Unmarshal(byGroup, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.N != len(ids) {
		t.Errorf("n = %d, want %d", resp.N, len(ids))
	}
	if resp.Null != "analytic" {
		t.Errorf("null = %q, want analytic", resp.Null)
	}
	for _, fn := range []string{"avgdeg", "ratiocut", "conductance", "modularity"} {
		if _, ok := resp.Scores[fn]; !ok {
			t.Errorf("default funcs: %s missing from scores", fn)
		}
	}

	// The same set by member IDs, shuffled and with a duplicate, must
	// canonicalize to the same scores.
	shuffled := append([]int64{ids[len(ids)-1]}, ids...)
	status, byMembers, _ := postScore(t, ts.Client(), ts.URL, api.ScoreRequest{Dataset: "gplus", Members: shuffled})
	if status != http.StatusOK {
		t.Fatalf("by members: status %d, body %s", status, byMembers)
	}
	var mresp api.ScoreResponse
	if err := json.Unmarshal(byMembers, &mresp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if mresp.N != resp.N || mresp.InternalEdges != resp.InternalEdges || mresp.BoundaryEdges != resp.BoundaryEdges {
		t.Errorf("members cut (%d,%d,%d) != group cut (%d,%d,%d)",
			mresp.N, mresp.InternalEdges, mresp.BoundaryEdges, resp.N, resp.InternalEdges, resp.BoundaryEdges)
	}
	for name, want := range resp.Scores {
		if got := mresp.Scores[name]; got != want {
			t.Errorf("score %s: members %v != group %v", name, got, want)
		}
	}

	// The empirical null with a fixed seed must be deterministic:
	// byte-identical bodies across sequential (non-coalesced) requests.
	req := api.ScoreRequest{Dataset: "twitter", Group: firstGroupName(t, "twitter"), NullSamples: 4, Seed: 7}
	_, first, _ := postScore(t, ts.Client(), ts.URL, req)
	_, second, _ := postScore(t, ts.Client(), ts.URL, req)
	if !bytes.Equal(first, second) {
		t.Errorf("empirical-null responses differ across identical sequential requests:\n%s\n%s", first, second)
	}
}

func firstGroupName(t *testing.T, dataset string) string {
	t.Helper()
	name, _ := firstGroup(t, dataset)
	return name
}

// TestScoreValidation walks the 4xx surface of the endpoint.
func TestScoreValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxNullSamples: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	group, _ := firstGroup(t, "gplus")

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"dataset":"gplus","group":"x","nope":1}`, http.StatusBadRequest},
		{"missing dataset", `{"group":"x"}`, http.StatusBadRequest},
		{"neither group nor members", `{"dataset":"gplus"}`, http.StatusBadRequest},
		{"both group and members", fmt.Sprintf(`{"dataset":"gplus","group":%q,"members":[1]}`, group), http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope","group":"x"}`, http.StatusNotFound},
		{"unknown group", `{"dataset":"gplus","group":"no-such-circle"}`, http.StatusNotFound},
		{"unknown member", `{"dataset":"gplus","members":[-12345]}`, http.StatusBadRequest},
		{"negative null samples", fmt.Sprintf(`{"dataset":"gplus","group":%q,"null_samples":-1}`, group), http.StatusBadRequest},
		{"null samples over cap", fmt.Sprintf(`{"dataset":"gplus","group":%q,"null_samples":9}`, group), http.StatusBadRequest},
		{"unknown func", fmt.Sprintf(`{"dataset":"gplus","group":%q,"funcs":["nope"]}`, group), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			if e, ok := api.DecodeError(body); !ok || e.Code == "" {
				t.Errorf("error envelope missing or malformed: %s", body)
			}
		})
	}
}

// TestCharacterizeAndInventory covers the cached profile endpoint, the
// data-set inventory, healthz and the metrics snapshot.
func TestCharacterizeAndInventory(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	status, body := get("/v1/characterize/gplus")
	if status != http.StatusOK {
		t.Fatalf("characterize: status %d, body %s", status, body)
	}
	var ch api.CharacterizeResponse
	if err := json.Unmarshal(body, &ch); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ch.Dataset != "gplus" || ch.Vertices <= 0 || ch.Edges <= 0 || ch.Groups <= 0 {
		t.Errorf("implausible profile: %+v", ch)
	}
	// Second hit is served from the suite cache and must match exactly.
	if _, again := get("/v1/characterize/gplus"); !bytes.Equal(body, again) {
		t.Error("cached characterize response differs from first")
	}
	if status, body := get("/v1/characterize/nope"); status != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, body %s", status, body)
	}

	status, body = get("/v1/datasets")
	if status != http.StatusOK {
		t.Fatalf("datasets: status %d", status)
	}
	var infos []api.DatasetInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(infos) != len(core.DatasetNames()) {
		t.Errorf("inventory has %d data sets, want %d", len(infos), len(core.DatasetNames()))
	}
	for _, info := range infos {
		if info.Vertices <= 0 {
			t.Errorf("implausible inventory entry: %+v", info)
		}
		// The crawl sample carries no ground-truth groups; every other
		// data set must.
		if info.Name != "crawl" && len(info.Groups) == 0 {
			t.Errorf("data set %s has no groups", info.Name)
		}
	}

	if status, body := get("/healthz"); status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz: status %d, body %s", status, body)
	}

	status, body = get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var m api.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal metrics: %v", err)
	}
	if m.Metrics.Counters["serve.requests"] <= 0 {
		t.Errorf("serve.requests not counted: %+v", m.Metrics.Counters)
	}
}

// TestCoalescing holds the single worker busy on a blocker call, parks a
// leader in the queue, joins followers onto its key, then releases the
// pool: every waiter must receive byte-identical bodies, and the
// serve.coalesced counter must equal the follower count exactly.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan string, 16)
	rec := obs.NewRecorder()
	s := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 8,
		Recorder:   rec,
		workerHook: func(c *call) {
			entered <- c.key
			if strings.Contains(c.key, "/characterize/") {
				<-release
			}
		},
	})
	group, _ := firstGroup(t, "gplus")

	// Blocker: occupies the single worker until released.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/v1/characterize/twitter", nil)
		r.SetPathValue("dataset", "twitter")
		s.handleCharacterize(w, r)
	}()
	if key := <-entered; !strings.Contains(key, "/characterize/") {
		t.Fatalf("blocker key = %q", key)
	}

	// Leader: identical score requests; the first becomes leader and sits
	// in the queue behind the blocked worker, the rest join its call.
	const followers = 4
	body, _ := json.Marshal(api.ScoreRequest{Dataset: "gplus", Group: group})
	results := make([][]byte, followers+1)
	statuses := make([]int, followers+1)
	coalesced := make([]bool, followers+1)
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(body))
		s.handleScore(w, r)
		results[i] = w.Body.Bytes()
		statuses[i] = w.Code
		coalesced[i] = w.Header().Get("X-Coalesced") == "true"
	}
	wg.Add(1)
	go send(0)
	// The leader has registered once a score call (distinct from the
	// blocker's characterize call) is observable in flight.
	scoreCall := func() *call {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		for key, c := range s.flight.calls {
			if strings.Contains(key, "/score/") {
				return c
			}
		}
		return nil
	}
	waitFor(t, func() bool { return scoreCall() != nil })
	leaderCall := scoreCall()
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go send(i)
	}
	// Every follower has joined once the waiter count reaches 1+followers.
	waitFor(t, func() bool { return leaderCall.waiters.Load() == followers+1 })

	close(release)
	wg.Wait()
	<-blockerDone

	for i := range results {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], results[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("request %d body differs from leader:\n%s\n%s", i, results[i], results[0])
		}
	}
	nCoalesced := 0
	for _, c := range coalesced {
		if c {
			nCoalesced++
		}
	}
	if nCoalesced != followers {
		t.Errorf("X-Coalesced responses = %d, want %d", nCoalesced, followers)
	}
	if got := rec.Snapshot().Counters["serve.coalesced"]; got != followers {
		t.Errorf("serve.coalesced = %d, want %d", got, followers)
	}
	// Scoring ran exactly twice: the blocker and one shared execution.
	if got := rec.Snapshot().Timers["serve/score"].Count; got != 2 {
		t.Errorf("pool executions = %d, want 2 (blocker + coalesced score)", got)
	}
}

// TestBackpressure fills the single-slot queue behind a held worker and
// asserts the third distinct request is shed with 429 + Retry-After
// while the queued ones still complete.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan string, 16)
	rec := obs.NewRecorder()
	s := newTestServer(t, Options{
		Workers:           1,
		QueueDepth:        1,
		RetryAfterSeconds: 3,
		Recorder:          rec,
		workerHook: func(c *call) {
			entered <- c.key
			<-release
		},
	})
	group, ids := firstGroup(t, "gplus")

	var wg sync.WaitGroup
	codes := make([]int, 2)
	send := func(i int, req api.ScoreRequest) {
		defer wg.Done()
		b, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(b))
		s.handleScore(w, r)
		codes[i] = w.Code
	}
	// First request: dequeued and held by the worker.
	wg.Add(1)
	go send(0, api.ScoreRequest{Dataset: "gplus", Group: group})
	<-entered
	// Second, distinct request: fills the queue's only slot.
	wg.Add(1)
	go send(1, api.ScoreRequest{Dataset: "gplus", Members: ids[:2]})
	waitFor(t, func() bool { return len(s.queue) == 1 })

	// Third, distinct again: must be shed synchronously.
	b, _ := json.Marshal(api.ScoreRequest{Dataset: "gplus", Members: ids[:3]})
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(b))
	s.handleScore(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	if e, ok := api.DecodeError(w.Body.Bytes()); !ok || e.Code != api.CodeQueueFull {
		t.Errorf("shed body is not the queue_full envelope: %s", w.Body.String())
	}
	if got := rec.Snapshot().Counters["serve.rejected"]; got != 1 {
		t.Errorf("serve.rejected = %d, want 1", got)
	}

	// Release the pool: the held and queued requests complete normally.
	close(release)
	go func() {
		for range entered {
			// drain remaining hook signals
		}
	}()
	wg.Wait()
	close(entered)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, code)
		}
	}
}

// TestClientCancellation abandons a request mid-flight: the departing
// last waiter must cancel the shared call's context so the executing
// worker observes cancellation instead of computing for nobody.
func TestClientCancellation(t *testing.T) {
	release := make(chan struct{})
	calls := make(chan *call, 1)
	s := newTestServer(t, Options{
		Workers: 1,
		workerHook: func(c *call) {
			calls <- c
			<-release
		},
	})
	group, _ := firstGroup(t, "twitter")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		b, _ := json.Marshal(api.ScoreRequest{Dataset: "twitter", Group: group, NullSamples: 4})
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(b)).WithContext(ctx)
		s.handleScore(w, r)
		done <- w.Code
	}()
	held := <-calls // the worker now holds the call
	cancel()        // client goes away
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client cancellation")
	}
	// The last departing waiter cancels the shared call.
	select {
	case <-held.ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("call context not cancelled after last waiter left")
	}
	close(release)
	// The worker executes the already-cancelled call; runScore answers
	// 503 at its cancellation check and the pool moves on — verified by
	// a follow-up request completing normally.
	b, _ := json.Marshal(api.ScoreRequest{Dataset: "gplus", Group: firstGroupName(t, "gplus")})
	respDone := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(b))
		s.handleScore(w, r)
		respDone <- w.Code
	}()
	<-calls
	select {
	case code := <-respDone:
		if code != http.StatusOK {
			t.Errorf("follow-up request: status %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up request did not complete")
	}
}

// TestHammer fires a racy mix of valid, invalid and coalescable requests
// from many goroutines across data sets; every response must be 200, a
// documented 4xx, or a 429 shed — never a 5xx — and identical requests
// must yield byte-identical 200 bodies. Run under -race this is the
// package's concurrency witness.
func TestHammer(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	gplusGroup, gplusIDs := firstGroup(t, "gplus")
	twitterGroup, _ := firstGroup(t, "twitter")

	reqs := []api.ScoreRequest{
		{Dataset: "gplus", Group: gplusGroup},
		{Dataset: "gplus", Group: gplusGroup, NullSamples: 2, Seed: 3},
		{Dataset: "twitter", Group: twitterGroup},
		{Dataset: "gplus", Members: gplusIDs[:3]},
		{Dataset: "gplus", Members: gplusIDs[:3], Funcs: []string{"conductance"}},
	}
	const goroutines = 16
	const perG = 10
	var mu sync.Mutex
	bodies := make(map[string][]byte) // canonical body per request index
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ri := (g + i) % len(reqs)
				status, body, _ := postScore(t, ts.Client(), ts.URL, reqs[ri])
				switch {
				case status == http.StatusOK:
					key := fmt.Sprintf("req%d", ri)
					mu.Lock()
					if prev, ok := bodies[key]; ok {
						if !bytes.Equal(prev, body) {
							t.Errorf("request %d: divergent 200 bodies", ri)
						}
					} else {
						bodies[key] = body
					}
					mu.Unlock()
				case status == http.StatusTooManyRequests:
					// Load shed: acceptable under the hammer.
				default:
					t.Errorf("request %d: unexpected status %d (body %s)", ri, status, body)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDrain is the SIGTERM analog: cancel the ServeListener context
// while a request is in flight. The in-flight request must complete
// with 200, new connections must be refused, the pool must join, and
// no goroutines may leak.
func TestDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	release := make(chan struct{})
	entered := make(chan string, 4)
	s := newTestServer(t, Options{
		Workers:      2,
		DrainTimeout: 5 * time.Second,
		workerHook: func(c *call) {
			entered <- c.key
			<-release
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeListener(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	group, _ := firstGroup(t, "gplus")
	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postScore(t, client, base, api.ScoreRequest{Dataset: "gplus", Group: group})
		inflight <- status
	}()
	<-entered // the worker holds the in-flight request

	cancel() // SIGTERM analog: begin the drain
	waitFor(t, func() bool { return s.Draining() })

	// In-flight work finishes and its client gets a full response.
	close(release)
	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", status)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("ServeListener returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeListener did not return after drain")
	}

	// The listener is gone: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 500*time.Millisecond); err == nil {
		t.Error("listener still accepting connections after drain")
	}
	// A post-drain dispatch is shed as draining (503, not 429).
	b, _ := json.Marshal(api.ScoreRequest{Dataset: "gplus", Group: group})
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(b))
	s.handleScore(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain dispatch: status %d, want 503", w.Code)
	}

	client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, got)
	}
}

// TestListenAndServeBindError covers the address-in-use error path.
func TestListenAndServeBindError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	s := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.ListenAndServe(ctx, ln.Addr().String()); err == nil {
		t.Error("ListenAndServe on a bound address returned nil error")
	}
}

// TestExperimentsEndpoint: /v1/experiments lists the registry with the
// per-run enablement from Options.Experiments.
func TestExperimentsEndpoint(t *testing.T) {
	enabled, err := experiments.ParseSet("triangle-cohesion")
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"default": {},
		"opted":   {Experiments: enabled},
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, opts)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, err := ts.Client().Get(ts.URL + "/v1/experiments")
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			var infos []api.ExperimentInfo
			if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if len(infos) != len(experiments.All()) {
				t.Fatalf("listing has %d experiments, registry has %d", len(infos), len(experiments.All()))
			}
			var found bool
			for _, info := range infos {
				if info.Name != "triangle-cohesion" {
					continue
				}
				found = true
				if info.Doc == "" {
					t.Error("triangle-cohesion listed without its doc line")
				}
				if want := opts.Experiments.Enabled("triangle-cohesion"); info.Enabled != want {
					t.Errorf("enabled = %v, want %v", info.Enabled, want)
				}
			}
			if !found {
				t.Error("triangle-cohesion missing from the listing")
			}
		})
	}
}

// TestNewServerRequiresSuite covers the constructor's contract.
func TestNewServerRequiresSuite(t *testing.T) {
	if _, err := NewServer(Options{}); err == nil {
		t.Error("NewServer without a suite returned nil error")
	}
}

// waitFor polls cond with a bounded deadline; test-only synchronization
// for state that is observable but not signalled.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
