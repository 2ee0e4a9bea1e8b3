package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpluscircles/internal/serve/api"
)

// TestErrorEnvelopeEveryPath walks every error surface of the service
// and asserts one invariant: a non-2xx response is always the api error
// envelope with the documented machine-readable code, regardless of
// which handler or layer produced it.
func TestErrorEnvelopeEveryPath(t *testing.T) {
	s := newTestServer(t, Options{MaxNullSamples: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	group, ids := firstGroup(t, "gplus")

	do := func(t *testing.T, base, method, path, contentType, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"score bad json", "POST", "/v1/score", `{`, http.StatusBadRequest, api.CodeInvalidRequest},
		{"score unknown field", "POST", "/v1/score", `{"dataset":"gplus","group":"x","nope":1}`, http.StatusBadRequest, api.CodeInvalidRequest},
		{"score missing dataset", "POST", "/v1/score", `{"group":"x"}`, http.StatusBadRequest, api.CodeInvalidRequest},
		{"score group and members", "POST", "/v1/score", fmt.Sprintf(`{"dataset":"gplus","group":%q,"members":[1]}`, group), http.StatusBadRequest, api.CodeInvalidRequest},
		{"score null samples over cap", "POST", "/v1/score", fmt.Sprintf(`{"dataset":"gplus","group":%q,"null_samples":9}`, group), http.StatusBadRequest, api.CodeInvalidRequest},
		{"score unknown dataset", "POST", "/v1/score", `{"dataset":"nope","group":"x"}`, http.StatusNotFound, api.CodeUnknownDataset},
		{"score unknown group", "POST", "/v1/score", `{"dataset":"gplus","group":"no-such-circle"}`, http.StatusNotFound, api.CodeUnknownGroup},
		{"score unknown member", "POST", "/v1/score", `{"dataset":"gplus","members":[-12345]}`, http.StatusBadRequest, api.CodeUnknownMember},
		{"score unknown func", "POST", "/v1/score", fmt.Sprintf(`{"dataset":"gplus","group":%q,"funcs":["nope"]}`, group), http.StatusBadRequest, api.CodeUnknownFunc},
		{"score gated func", "POST", "/v1/score", fmt.Sprintf(`{"dataset":"gplus","group":%q,"funcs":["cohesion"]}`, group), http.StatusBadRequest, api.CodeExperimentGated},
		{"characterize unknown dataset", "GET", "/v1/characterize/nope", "", http.StatusNotFound, api.CodeUnknownDataset},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(t, ts.URL, tc.method, tc.path, "application/json", tc.body)
			defer resp.Body.Close()
			assertEnvelope(t, resp, tc.wantStatus, tc.wantCode)
		})
	}

	t.Run("queue full keeps Retry-After", func(t *testing.T) {
		release := make(chan struct{})
		entered := make(chan string, 8)
		held := newTestServer(t, Options{
			Workers:           1,
			QueueDepth:        1,
			RetryAfterSeconds: 7,
			workerHook: func(c *call) {
				entered <- c.key
				<-release
			},
		})
		tsHeld := httptest.NewServer(held.Handler())
		defer tsHeld.Close()
		// Registered after tsHeld.Close so it runs first: the held worker
		// must be released before the httptest server can drain.
		defer close(release)
		go func() {
			resp, err := tsHeld.Client().Post(tsHeld.URL+"/v1/score", "application/json",
				strings.NewReader(fmt.Sprintf(`{"dataset":"gplus","group":%q}`, group)))
			if err == nil {
				resp.Body.Close()
			}
		}()
		<-entered // worker held
		go func() {
			resp, err := tsHeld.Client().Post(tsHeld.URL+"/v1/score", "application/json",
				strings.NewReader(fmt.Sprintf(`{"dataset":"gplus","members":[%d,%d]}`, ids[0], ids[1])))
			if err == nil {
				resp.Body.Close()
			}
		}()
		waitFor(t, func() bool { return len(held.queue) == 1 })

		resp, err := tsHeld.Client().Post(tsHeld.URL+"/v1/score", "application/json",
			strings.NewReader(fmt.Sprintf(`{"dataset":"gplus","members":[%d,%d,%d]}`, ids[0], ids[1], ids[2])))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Errorf("Retry-After = %q, want \"7\"", got)
		}
		assertEnvelope(t, resp, http.StatusTooManyRequests, api.CodeQueueFull)
	})

	t.Run("draining", func(t *testing.T) {
		s.draining.Store(true)
		defer s.draining.Store(false)
		resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
			strings.NewReader(fmt.Sprintf(`{"dataset":"gplus","group":%q}`, group)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		assertEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeDraining)
	})
}

// assertEnvelope checks status and that the body is exactly the uniform
// envelope carrying the wanted code.
func assertEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	e, ok := api.DecodeError(body)
	if !ok {
		t.Fatalf("body is not the error envelope: %s", body)
	}
	if e.Code != wantCode {
		t.Errorf("error.code = %q, want %q (message %q)", e.Code, wantCode, e.Message)
	}
	if e.Message == "" {
		t.Error("error.message is empty")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
}
