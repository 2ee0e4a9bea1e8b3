package ncp

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpluscircles/internal/serve/api"
)

// FuzzNCPBody drives arbitrary bytes through the /v1/ncp front half —
// http.MaxBytesReader, strict JSON decoding and resolveNCP. resolveNCP
// is the only path by which outside bytes reach the sweep, so every
// input must
// end in exactly one of two well-formed outcomes:
//
//   - a request whose fields all lie within the endpoint's bounds (a
//     named data set, seeds, max_size and null_samples within their
//     caps, alpha in [0, 1), eps 0 or at least minEps, and a push-work
//     bound within maxPushWork); or
//   - a 400 whose writeNCPError body decodes as the api error envelope
//     with the invalid_request code and a message.
func FuzzNCPBody(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"gplus"}`,
		`{"dataset":"gplus","seeds":8,"eps":1e-5,"alpha":0.2,"max_size":50,"seed":3,"null_samples":1}`,
		`{"dataset":"gplus","eps":1e-8}`,
		`{"dataset":"gplus","seeds":5,"eps":1e-8,"alpha":0.5}`,
		`{"dataset":"gplus","seeds":6,"eps":1e-8,"alpha":0.5}`,
		`{"dataset":"gplus","alpha":5e-324}`,
		`{"dataset":"gplus","eps":9.99e-9}`,
		`{"dataset":"gplus","eps":5e-324}`,
		`{"dataset":"gplus","eps":-0}`,
		`{"dataset":"gplus","eps":1e309}`,
		`{"dataset":"gplus","alpha":0.9999999999999999}`,
		`{"dataset":"gplus","seeds":513}`,
		`{"dataset":"gplus","seeds":-1,"max_size":-1}`,
		`{"dataset":"gplus","null_samples":9}`,
		`{"dataset":"gplus","seed":-9223372036854775808}`,
		`{"dataset":"gplus","bogus":1}`,
		`{"dataset":"gplus","seeds":4} {"bogus": true}`,
		`{"dataset":"gplus"} trailing garbage`,
		`{"dataset":"gplus"}]`,
		"{\"dataset\":\"gplus\"}\n",
		`{"dataset":"gplus","seeds":1.5}`,
		`{"dataset":"gplus"`,
		"{\"dataset\":\"\xff\xfe\"}",
		`{}`,
		`null`,
		`{"dataset":"` + strings.Repeat("a", maxBodyBytes) + `"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := resolveNCP(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
		if err != nil {
			rec := httptest.NewRecorder()
			writeNCPError(rec, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
			e, ok := api.DecodeError(rec.Body.Bytes())
			if !ok {
				t.Fatalf("error body is not the envelope: %q", rec.Body.Bytes())
			}
			if rec.Code != http.StatusBadRequest || e.Code != api.CodeInvalidRequest || e.Message == "" {
				t.Fatalf("status %d, code %q, message %q", rec.Code, e.Code, e.Message)
			}
			return
		}
		switch {
		case req.Dataset == "":
			t.Fatal("accepted a request without a data set")
		case req.Seeds < 0 || req.Seeds > maxSeeds:
			t.Fatalf("accepted seeds %d", req.Seeds)
		case req.Eps < 0 || (req.Eps > 0 && req.Eps < minEps):
			t.Fatalf("accepted eps %g", req.Eps)
		case req.Alpha < 0 || req.Alpha >= 1:
			t.Fatalf("accepted alpha %g", req.Alpha)
		case req.MaxSize < 0 || req.MaxSize > maxSweepSize:
			t.Fatalf("accepted max_size %d", req.MaxSize)
		case req.NullSamples < 0 || req.NullSamples > maxNullSamples:
			t.Fatalf("accepted null_samples %d", req.NullSamples)
		case !(pushWork(req) <= maxPushWork):
			t.Fatalf("accepted push-work bound %g", pushWork(req))
		}
	})
}
