package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, workers, want int }{
		{0, 0, 0},
		{0, 4, 0},
		{-3, 4, 0},
		{1, 64, 1},
		{10, 3, 3},
		{10, 1, 1},
		{1000, 0, min(procs, 1000)},
		{1000, -1, min(procs, 1000)},
	} {
		if got := Workers(tc.n, tc.workers); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestForCallsEveryIndexOnce: each index runs exactly once and every
// worker id is below the resolved worker count.
func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			limit := Workers(n, workers)
			calls := make([]atomic.Int32, n)
			var badW atomic.Int32
			For(n, workers, func(w, i int) {
				if w < 0 || w >= limit {
					badW.Store(int32(w) + 1)
				}
				calls[i].Add(1)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d called %d times", n, workers, i, c)
				}
			}
			if b := badW.Load(); b != 0 {
				t.Errorf("n=%d workers=%d: worker id %d outside [0, %d)", n, workers, b-1, limit)
			}
		}
	}
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestForSingleWorkerInline: one worker runs every body on the caller's
// goroutine, in index order.
func TestForSingleWorkerInline(t *testing.T) {
	caller := goid()
	var order []int
	For(5, 1, func(w, i int) {
		if id := goid(); id != caller {
			t.Errorf("index %d ran on goroutine %d, want caller %d", i, id, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d bodies, want 5", len(order))
	}
}

// TestForJoins: every body has finished when For returns, and the
// workers For started exit, leaving the goroutine count where it was.
func TestForJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	var done atomic.Int32
	For(64, 8, func(_, _ int) {
		time.Sleep(100 * time.Microsecond)
		done.Add(1)
	})
	if d := done.Load(); d != 64 {
		t.Fatalf("For returned with %d of 64 bodies finished", d)
	}
	// A worker has called wg.Done but may not have unwound yet.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after For, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
