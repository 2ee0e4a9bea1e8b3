package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpluscircles/internal/serve/api"
)

// FuzzScoreBody drives arbitrary bytes through the /v1/score front half
// — http.MaxBytesReader, JSON decoding and resolveScore — against the
// shared test suite. resolveScore is the only path by which outside
// bytes reach scoring, so every input must end in exactly one of two
// well-formed outcomes:
//
//   - a job whose members are sorted, deduplicated, non-empty and valid
//     vertices of the named data set, with functions and a key set and
//     null_samples within the server's cap; or
//   - a 400/404 whose writeError body decodes as the api error envelope
//     with a known code matching its status.
func FuzzScoreBody(f *testing.F) {
	group, ids := firstGroup(f, "gplus")
	for _, seed := range []string{
		fmt.Sprintf(`{"dataset":"gplus","group":%q}`, group),
		fmt.Sprintf(`{"dataset":"gplus","members":[%d,%d,%d,%d],"funcs":["conductance","modularity"]}`, ids[1], ids[0], ids[1], ids[2]),
		`{"dataset":"gplus","group":"x","nope":1}`,
		fmt.Sprintf(`{"dataset":"gplus","group":%q} {"bogus": true}`, group),
		fmt.Sprintf(`{"dataset":"gplus","group":%q}]`, group),
		fmt.Sprintf("{\"dataset\":\"gplus\",\"group\":%q}\r\n", group),
		`{"dataset":"gplus","gro`,
		"{\"dataset\":\"\xff\xfe\",\"group\":\"\xc3\x28\"}",
		`{"dataset":"gplus","members":[99999999999999999999999]}`,
		`{"dataset":"gplus","members":[-9223372036854775808,9223372036854775807]}`,
		fmt.Sprintf(`{"dataset":"gplus","group":%q,"null_samples":1e309}`, group),
		fmt.Sprintf(`{"dataset":"gplus","group":%q,"null_samples":-3}`, group),
		fmt.Sprintf(`{"dataset":"gplus","group":%q,"funcs":["cohesion"]}`, group),
		`{"dataset":"nope","group":"x"}`,
		`{"dataset":"gplus","group":"` + strings.Repeat("a", maxScoreBodyBytes) + `"}`,
	} {
		f.Add([]byte(seed))
	}

	s, err := NewServer(Options{Suite: testSuite(), MaxNullSamples: 8})
	if err != nil {
		f.Fatal(err)
	}
	statusOf := map[string]int{
		api.CodeInvalidRequest:  http.StatusBadRequest,
		api.CodeUnknownMember:   http.StatusBadRequest,
		api.CodeUnknownFunc:     http.StatusBadRequest,
		api.CodeExperimentGated: http.StatusBadRequest,
		api.CodeUnknownDataset:  http.StatusNotFound,
		api.CodeUnknownGroup:    http.StatusNotFound,
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		job, herr := s.resolveScore(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxScoreBodyBytes))
		if herr != nil {
			if job != nil {
				t.Fatalf("both a job and an error (%v)", herr)
			}
			rec := httptest.NewRecorder()
			writeError(rec, herr.status, herr.code, herr.msg)
			e, ok := api.DecodeError(rec.Body.Bytes())
			if !ok {
				t.Fatalf("error body is not the envelope: %q", rec.Body.Bytes())
			}
			want, known := statusOf[e.Code]
			if !known || rec.Code != want {
				t.Fatalf("status %d with code %q (known %v, want status %d)", rec.Code, e.Code, known, want)
			}
			if e.Message == "" {
				t.Fatalf("code %q with an empty message", e.Code)
			}
			return
		}
		if job == nil {
			t.Fatal("neither a job nor an error")
		}
		n := job.ds.Graph.NumVertices()
		if len(job.members) == 0 {
			t.Fatal("job with no members")
		}
		for i, v := range job.members {
			if int(v) < 0 || int(v) >= n {
				t.Fatalf("member %d out of range [0,%d)", v, n)
			}
			if i > 0 && v <= job.members[i-1] {
				t.Fatalf("members not strictly increasing at %d: %v", i, job.members)
			}
		}
		if len(job.funcs) == 0 || job.key == "" {
			t.Fatalf("job without funcs (%d) or key (%q)", len(job.funcs), job.key)
		}
		if ns := job.req.NullSamples; ns < 0 || ns > s.opts.MaxNullSamples {
			t.Fatalf("null_samples %d outside [0,%d]", ns, s.opts.MaxNullSamples)
		}
	})
}
