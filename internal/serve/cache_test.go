package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gpluscircles/internal/obs"
	"gpluscircles/internal/serve/api"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return b
}

// TestResultCacheLRU exercises the request table's cache mechanics
// directly: the resident bound holds, evictions are counted, a hit
// promotes its key out of eviction order, non-200 results never stay
// resident, and an in-flight call is never evicted.
func TestResultCacheLRU(t *testing.T) {
	rec := obs.NewRecorder()
	tb := newTable(3, time.Minute, rec)
	run := func(context.Context) ([]byte, int) { return nil, 0 }
	// put runs one key through the table as a leader and finishes it.
	put := func(tb *table, key string, body []byte, status int) {
		t.Helper()
		c, r := tb.join(key, run)
		if r != roleLeader {
			t.Fatalf("%s: role %d, want leader", key, r)
		}
		tb.finish(c, body, status)
	}
	for i := 0; i < 3; i++ {
		put(tb, fmt.Sprintf("k%d", i), []byte{byte(i)}, http.StatusOK)
	}
	if tb.ll.Len() != 3 {
		t.Fatalf("len = %d, want 3", tb.ll.Len())
	}
	// Hit k0: it becomes most recent, so finishing k3 must evict k1.
	c, r := tb.join("k0", run)
	if r != roleHit || !bytes.Equal(c.body, []byte{0}) {
		t.Fatalf("k0: role %d body %v, want a hit on the resident bytes", r, c.body)
	}
	if c.ctx != nil || c.cancel != nil || c.run != nil {
		t.Error("resident call still pins its execution state")
	}
	put(tb, "k3", []byte{3}, http.StatusOK)
	if tb.ll.Len() != 3 {
		t.Errorf("len = %d after eviction, want 3", tb.ll.Len())
	}
	if _, r := tb.join("k1", run); r != roleLeader {
		t.Errorf("k1: role %d; LRU order ignored the promoting hit", r)
	}
	if _, r := tb.join("k0", run); r != roleHit {
		t.Error("promoted k0 was evicted")
	}
	// Counting: 4 leader misses, hit k0, miss k1, hit k0.
	snap := rec.Snapshot()
	if got := snap.Counters["serve.cache.evictions"]; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := snap.Counters["serve.cache.hits"]; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := snap.Counters["serve.cache.misses"]; got != 5 {
		t.Errorf("misses = %d, want 5", got)
	}

	// A non-200 result leaves the table: the next request leads afresh.
	put(tb, "shed", []byte("queue full"), http.StatusTooManyRequests)
	if _, r := tb.join("shed", run); r != roleLeader {
		t.Errorf("shed: role %d after a 429, want leader", r)
	}

	// An in-flight call is never evicted: at a bound of 1, finishing two
	// other keys while it is held leaves its followers joined to it.
	one := newTable(1, time.Minute, obs.NewRecorder())
	held, _ := one.join("held", run)
	put(one, "a", []byte("a"), http.StatusOK)
	put(one, "b", []byte("b"), http.StatusOK)
	if c, r := one.join("held", run); r != roleFollower || c != held {
		t.Fatalf("held: role %d, same call %v; want a follower of the in-flight call", r, c == held)
	}
	if held.waiters != 2 {
		t.Errorf("held waiters = %d, want 2", held.waiters)
	}
	one.finish(held, []byte("h"), http.StatusOK)
	<-held.done
	if c, r := one.join("held", run); r != roleHit || !bytes.Equal(c.body, []byte("h")) {
		t.Errorf("held: role %d after finishing, want a hit", r)
	}
	if one.ll.Len() != 1 {
		t.Errorf("len = %d, want the bound 1", one.ll.Len())
	}

	// Disabled cache: coalescing alone, no residency, no counting.
	offRec := obs.NewRecorder()
	off := newTable(-1, time.Minute, offRec)
	c, _ = off.join("k", run)
	if _, r := off.join("k", run); r != roleFollower {
		t.Errorf("disabled cache: role %d, want follower of the in-flight call", r)
	}
	off.finish(c, []byte("v"), http.StatusOK)
	if _, r := off.join("k", run); r != roleLeader {
		t.Error("disabled cache kept a finished call resident")
	}
	if off.ll.Len() != 0 {
		t.Error("disabled cache reports residency")
	}
	if snap := offRec.Snapshot(); snap.Counters["serve.cache.hits"] != 0 || snap.Counters["serve.cache.misses"] != 0 {
		t.Errorf("disabled cache counted traffic: %+v", snap.Counters)
	}
}

// TestAbandonedCallReplaced: a request for the key of an in-flight call
// every waiter has left leads a new call instead of following the
// cancelled one, and the orphan's late finish leaves the new call's
// resident entry in place.
func TestAbandonedCallReplaced(t *testing.T) {
	tb := newTable(4, time.Minute, obs.NewRecorder())
	run := func(context.Context) ([]byte, int) { return nil, 0 }
	orphan, _ := tb.join("k", run)
	tb.leave(orphan)
	if orphan.ctx.Err() == nil {
		t.Fatal("last waiter left but the call was not cancelled")
	}
	fresh, r := tb.join("k", run)
	if r != roleLeader || fresh == orphan {
		t.Fatalf("role %d, same call %v; want a new leader", r, fresh == orphan)
	}
	if fresh.ctx.Err() != nil {
		t.Fatal("the new call starts cancelled")
	}
	tb.finish(fresh, []byte("ok"), http.StatusOK)
	tb.finish(orphan, []byte("cancelled"), http.StatusServiceUnavailable)
	<-orphan.done
	if tb.calls["k"] != fresh || tb.ll.Len() != 1 {
		t.Fatalf("orphan's finish disturbed the table: resident %d, entry is fresh %v", tb.ll.Len(), tb.calls["k"] == fresh)
	}
	if c, r := tb.join("k", run); r != roleHit || !bytes.Equal(c.body, []byte("ok")) {
		t.Errorf("role %d body %q, want a hit on the new call's bytes", r, c.body)
	}
}

// TestCacheHitDeterminism: a repeated request is served from the cache
// with the exact bytes of the original computation, marked X-Cache: hit,
// and counted. Runs the repeat under concurrency so -race patrols the
// shared-body path.
func TestCacheHitDeterminism(t *testing.T) {
	rec := obs.NewRecorder()
	s := newTestServer(t, Options{Recorder: rec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	group, _ := firstGroup(t, "gplus")
	req := api.ScoreRequest{Dataset: "gplus", Group: group, NullSamples: 2, Seed: 9}

	status, first, _ := postScore(t, ts.Client(), ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first: status %d, body %s", status, first)
	}

	const repeats = 8
	bodies := make([][]byte, repeats)
	hits := make([]bool, repeats)
	var wg sync.WaitGroup
	for i := 0; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
				bytes.NewReader(mustMarshal(t, req)))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer b.Body.Close()
			bodies[i] = readAll(t, b.Body)
			hits[i] = b.Header.Get("X-Cache") == "hit"
		}(i)
	}
	wg.Wait()

	nHits := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], first) {
			t.Errorf("repeat %d body differs from the original computation", i)
		}
		if hits[i] {
			nHits++
		}
	}
	if nHits != repeats {
		t.Errorf("X-Cache hits = %d, want %d (the key was resident before the burst)", nHits, repeats)
	}
	if got := rec.Snapshot().Counters["serve.cache.hits"]; got < int64(repeats) {
		t.Errorf("serve.cache.hits = %d, want >= %d", got, repeats)
	}
}

// TestCacheDisabled: CacheSize < 0 turns the cache off — repeats
// re-execute (or coalesce) but never claim a cache hit.
func TestCacheDisabled(t *testing.T) {
	rec := obs.NewRecorder()
	s := newTestServer(t, Options{CacheSize: -1, Recorder: rec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	group, _ := firstGroup(t, "gplus")
	req := api.ScoreRequest{Dataset: "gplus", Group: group}

	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
			bytes.NewReader(mustMarshal(t, req)))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.Header.Get("X-Cache") == "hit" {
			t.Errorf("request %d claimed a cache hit with the cache disabled", i)
		}
	}
	snap := rec.Snapshot()
	if snap.Counters["serve.cache.hits"] != 0 || snap.Counters["serve.cache.misses"] != 0 {
		t.Errorf("disabled cache counted traffic: %+v", snap.Counters)
	}
}
