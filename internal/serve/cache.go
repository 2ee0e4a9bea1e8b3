package serve

import (
	"container/list"
	"context"
	"net/http"
	"sync"
	"time"

	"gpluscircles/internal/obs"
)

// call is one unit of pooled work, keyed by the canonical request hash.
// While in flight it is the single execution backing every coalesced
// request for its key: the leader inserts and enqueues it, followers
// join and wait on done. Once it finishes with a 200 it stays in the
// table as a result-cache entry until evicted. The body/status pair is
// written exactly once (by the worker, or by the leader on a rejected
// enqueue) before done is closed, so waiters read it without further
// synchronization.
type call struct {
	key string

	// ctx bounds the execution: it carries the server's per-request
	// deadline and is cancelled early when every waiter abandons the
	// request, wiring client departures into the estimator/score
	// cancellation paths.
	ctx    context.Context
	cancel context.CancelFunc

	// run executes the work. It must honor ctx and return the response
	// body and HTTP status.
	run func(ctx context.Context) ([]byte, int)

	done   chan struct{}
	body   []byte
	status int

	waiters int           // requests waiting on done; guarded by table.mu
	el      *list.Element // LRU position once finished and resident; nil in flight
}

// role is how one request relates to the call table.join returned.
type role int

const (
	roleHit      role = iota // finished and resident: answer from c.body
	roleFollower             // in flight: wait on c.done
	roleLeader               // inserted: the caller enqueues it
)

// table is the service's one request table: a map from canonical
// request key to call under one mutex. It deduplicates twice with one
// lookup. In-flight calls collapse concurrent duplicates into one
// execution (coalescing); finished 200 calls stay resident in an LRU
// list bounded to max entries and collapse sequential duplicates into
// zero (the result cache). Only 200 bodies stay resident — they are
// pure functions of the request for a fixed suite (scale, seed), so a
// hit returns the original computation's exact bytes — and any other
// status leaves the table when it finishes, so errors always
// re-execute. In-flight calls are never in the LRU list and never
// evicted.
//
// The bound is an entry count, not bytes: response bodies are small
// (a scores map, not a graph). Hits, misses and evictions are exported
// as serve.cache.{hits,misses,evictions}; hit-rate = hits / (hits +
// misses). A miss is counted for every request that reached the pool
// path, coalesced followers included. max <= 0 keeps no finished call
// resident and counts nothing, which leaves coalescing alone.
type table struct {
	mu      sync.Mutex
	max     int
	timeout time.Duration
	calls   map[string]*call
	ll      *list.List // finished resident calls; front = most recently used

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// newTable builds a table keeping at most max finished 200 calls
// resident, giving each new call a deadline of timeout, and registering
// its counters on rec.
func newTable(max int, timeout time.Duration, rec *obs.Recorder) *table {
	return &table{
		max:       max,
		timeout:   timeout,
		calls:     make(map[string]*call),
		ll:        list.New(),
		hits:      rec.Counter("serve.cache.hits"),
		misses:    rec.Counter("serve.cache.misses"),
		evictions: rec.Counter("serve.cache.evictions"),
	}
}

// join looks key up once. A resident call is a hit and is promoted to
// most recently used; its body is shared and must never be mutated. An
// in-flight call with waiters gains the request as a follower.
// Otherwise a new call running run is inserted with the request as its
// leader; an in-flight call every waiter has left (and so cancelled) is
// orphaned by that insert, and finishes without touching the table.
// Followers and leaders are accounted as waiters.
func (t *table) join(key string, run func(ctx context.Context) ([]byte, int)) (*call, role) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.calls[key]
	if ok && c.el != nil {
		t.ll.MoveToFront(c.el)
		t.hits.Inc()
		return c, roleHit
	}
	if t.max > 0 {
		t.misses.Inc()
	}
	if ok && c.waiters > 0 {
		c.waiters++
		return c, roleFollower
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.timeout)
	c = &call{key: key, ctx: ctx, cancel: cancel, run: run, done: make(chan struct{}), waiters: 1}
	t.calls[key] = c
	return c, roleLeader
}

// finish publishes an in-flight call's result and releases every
// waiter. A 200 stays resident, evicting the least recently used
// finished call past the bound; any other status leaves the table, so
// the next request for the key executes afresh. An orphaned call (join
// replaced it) neither stays resident nor deletes its replacement. The
// execution state is dropped, so a resident call pins only its key, body
// and status. Must be called exactly once per call.
func (t *table) finish(c *call, body []byte, status int) {
	t.mu.Lock()
	c.body, c.status = body, status
	c.cancel()
	c.ctx, c.cancel, c.run = nil, nil, nil
	switch {
	case t.calls[c.key] != c:
		// Orphaned: the key belongs to a newer call.
	case status == http.StatusOK && t.max > 0:
		c.el = t.ll.PushFront(c)
		if t.ll.Len() > t.max {
			oldest := t.ll.Remove(t.ll.Back()).(*call)
			delete(t.calls, oldest.key)
			t.evictions.Inc()
		}
	default:
		delete(t.calls, c.key)
	}
	t.mu.Unlock()
	close(c.done)
}

// leave drops one waiter; when the last waiter departs an in-flight
// call, its context is cancelled so abandoned work stops at its next
// cancellation point instead of running to completion for nobody.
func (t *table) leave(c *call) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.waiters--
	if c.waiters == 0 && c.cancel != nil {
		c.cancel()
	}
}
