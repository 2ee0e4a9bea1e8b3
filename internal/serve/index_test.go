package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"gpluscircles/internal/core"
	"gpluscircles/internal/serve/api"
)

// resolveBody resolves one score request body, failing the test on an
// error response.
func resolveBody(t *testing.T, s *Server, req api.ScoreRequest) *scoreJob {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	job, herr := s.resolveScore(bytes.NewReader(body))
	if herr != nil {
		t.Fatalf("resolve %s: %d %s %s", body, herr.status, herr.code, herr.msg)
	}
	return job
}

// TestDatasetIndex checks the per-data-set group index against the data
// sets it was built from. Every entry is the canonical form of its
// group's members and hashes them; concurrent scoring of one group
// (run under -race by make analyze) writes neither the ground truth nor
// the shared entry; an ad-hoc members request naming a group's set gets
// the group's set hash but its own key; and no two (dataset, group)
// pairs share a key.
func TestDatasetIndex(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1})
	keys := make(map[string]string)
	for _, name := range core.DatasetNames() {
		ds, err := testSuite().DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range ds.Groups {
			job := resolveBody(t, s, api.ScoreRequest{Dataset: name, Group: grp.Name})
			want := canonicalMembers(slices.Clone(grp.Members))
			entry := s.datasetIndex(name, ds).groups[grp.Name]
			if !slices.Equal(entry.members, want) || !slices.Equal(job.members, want) {
				t.Fatalf("%s/%s: entry %v, job %v, want canonical %v", name, grp.Name, entry.members, job.members, want)
			}
			if entry.hash != setHash(want) {
				t.Fatalf("%s/%s: entry hash %x, want %x", name, grp.Name, entry.hash, setHash(want))
			}
			at := name + "/" + grp.Name
			if prev, dup := keys[job.key]; dup {
				t.Fatalf("%s and %s share key %q", prev, at, job.key)
			}
			keys[job.key] = at
		}
	}

	ds, err := testSuite().DatasetByName("gplus")
	if err != nil {
		t.Fatal(err)
	}
	grp := ds.Groups[0]
	truth := slices.Clone(grp.Members)
	entry := s.datasetIndex("gplus", ds).groups[grp.Name]
	entryMembers := slices.Clone(entry.members)

	body, err := json.Marshal(api.ScoreRequest{Dataset: "gplus", Group: grp.Name})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Errorf("client %d: status %d, body %s", i, w.Code, w.Body.Bytes())
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if !slices.Equal(grp.Members, truth) {
		t.Errorf("scoring changed the data set's members: %v, was %v", grp.Members, truth)
	}
	if got := s.datasetIndex("gplus", ds).groups[grp.Name]; !slices.Equal(got.members, entryMembers) || got.hash != entry.hash {
		t.Errorf("scoring changed the index entry: %v (%x), was %v (%x)", got.members, got.hash, entryMembers, entry.hash)
	}

	// The same set by external IDs, shuffled and with a duplicate.
	ids := make([]int64, 0, len(grp.Members)+1)
	for _, v := range grp.Members {
		ids = append(ids, ds.Graph.ExternalID(v))
	}
	rand.New(rand.NewSource(2)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ids = append(ids, ids[0])
	adhoc := resolveBody(t, s, api.ScoreRequest{Dataset: "gplus", Members: ids})
	named := resolveBody(t, s, api.ScoreRequest{Dataset: "gplus", Group: grp.Name})
	if h := setHash(adhoc.members); h != entry.hash {
		t.Errorf("members request set hash %x, group's %x", h, entry.hash)
	}
	if adhoc.key == named.key {
		t.Errorf("members and group requests share key %q", adhoc.key)
	}
	if !strings.HasPrefix(adhoc.key, "score/") || !strings.HasPrefix(named.key, "score/") {
		t.Errorf("keys %q, %q lack the score/ prefix", adhoc.key, named.key)
	}
}

// TestScoreKeyBounded: the key's length does not grow with the request.
// Names may repeat in funcs, so a body just under the 1 MiB limit can
// list one function about 116,000 times; its key must be no longer than
// that of a request naming it once.
func TestScoreKeyBounded(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1})
	group, _ := firstGroup(t, "gplus")
	one := resolveBody(t, s, api.ScoreRequest{Dataset: "gplus", Group: group, Funcs: []string{"avgdeg"}})

	prefix := fmt.Sprintf(`{"dataset":"gplus","group":%q,"funcs":["avgdeg"`, group)
	const more, suffix = `,"avgdeg"`, `]}`
	body := []byte(prefix)
	for len(body)+len(more)+len(suffix) <= maxScoreBodyBytes {
		body = append(body, more...)
	}
	body = append(body, suffix...)
	job, herr := s.resolveScore(bytes.NewReader(body))
	if herr != nil {
		t.Fatalf("resolve a %d-byte body: %d %s %s", len(body), herr.status, herr.code, herr.msg)
	}
	if len(job.req.Funcs) < 100_000 {
		t.Fatalf("body lists %d funcs, want over 100,000", len(job.req.Funcs))
	}
	if len(job.key) > len(one.key) {
		t.Errorf("key of %d funcs is %d bytes, of one func %d: %q", len(job.req.Funcs), len(job.key), len(one.key), job.key)
	}
	if job.key == one.key {
		t.Errorf("different function lists share key %q", job.key)
	}
}

// TestScoreOversizedBody: a body past maxScoreBodyBytes is a 400
// invalid_request, and the server closes the connection after it
// rather than reading the rest of an unbounded body.
func TestScoreOversizedBody(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	prefix := `{"dataset":"gplus","group":"`
	body := prefix + strings.Repeat("a", maxScoreBodyBytes+1-len(prefix)-2) + `"}`
	if len(body) != maxScoreBodyBytes+1 {
		t.Fatalf("body is %d bytes", len(body))
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertEnvelope(t, resp, http.StatusBadRequest, api.CodeInvalidRequest)
	// The client consumes the Connection header and reports it here.
	if !resp.Close {
		t.Error("response to an oversized body lacks Connection: close")
	}
}
