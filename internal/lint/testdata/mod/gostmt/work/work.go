// Package work is outside the fixture's goroutine allowlist, so every
// go statement in it is a finding, whatever its join or bound: the
// leaks and per-item fan-outs as much as the joined and bounded shapes.
package work

import (
	"context"
	"sync"
)

func square(i int) int { return i * i }

// BadFireAndForget spawns a goroutine nothing ever joins.
func BadFireAndForget(results []int) {
	go func() { // want gostmt
		for i := range results {
			results[i] = square(i)
		}
	}()
}

// BadDetachedProducer sets a flag from a goroutine it never waits for.
func BadDetachedProducer(done *bool) {
	go func() { *done = true }() // want gostmt
}

// BadCtxWorker watches ctx inside the goroutine, which is no join for
// the spawner.
func BadCtxWorker(ctx context.Context, results []int) {
	go func() { // want gostmt
		for i := range results {
			if ctx.Err() != nil {
				return
			}
			results[i] = square(i)
		}
	}()
}

// perItem joins every goroutine but starts one per element.
func perItem(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) { // want gostmt
			defer wg.Done()
			use(it)
		}(it)
	}
	wg.Wait()
}

// condLoop spawns once per iteration of a condition-only loop.
func condLoop(next func() bool, done chan struct{}) {
	for next() {
		go notify(done) // want gostmt
	}
	<-done
}

// WaitGroupJoin joins through a WaitGroup before returning.
func WaitGroupJoin(out []int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want gostmt
		defer wg.Done()
		out[0] = square(3)
	}()
	wg.Wait()
}

// ChannelJoin joins by receiving the goroutine's result.
func ChannelJoin() int {
	ch := make(chan int)
	go func() { ch <- square(3) }() // want gostmt
	return <-ch
}

// SelectJoin blocks on either the result or the context.
func SelectJoin(ctx context.Context) int {
	ch := make(chan int, 1)
	go func() { ch <- square(5) }() // want gostmt
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// counterPool starts a fixed number of workers over a job channel.
func counterPool(n int, jobs chan int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want gostmt
			defer wg.Done()
			for j := range jobs {
				use(j)
			}
		}()
	}
	wg.Wait()
}

// semaphore bounds the spawns with a token channel.
func semaphore(items []int) {
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, it := range items {
		sem <- struct{}{}
		wg.Add(1)
		go func(it int) { // want gostmt
			defer wg.Done()
			use(it)
			<-sem
		}(it)
	}
	wg.Wait()
}

func use(int)              {}
func notify(chan struct{}) {}
