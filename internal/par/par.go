// Package par provides a bounded worker pool for fanning independent
// simulation runs across goroutines.
//
// Every serve.Run* call builds its own sim.Simulator, RNG, cost models,
// and metrics.Recorder, so distinct runs are embarrassingly parallel.
// What the pool adds is determinism at the collection point: results come
// back indexed by submission order, and the error returned is the one the
// serial loop would have hit first (lowest index), so exhibit output is
// byte-identical whether a sweep ran on one worker or sixteen.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded fan-out executor. The zero value is not usable; call
// NewPool. A Pool is stateless between calls and safe for concurrent use.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most n tasks concurrently.
// n <= 0 means GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Run invokes fn(0), fn(1), …, fn(n-1), at most p.Workers() at a time,
// and returns the results indexed by i. If any invocation fails, Run
// returns the error with the lowest index — exactly the error a serial
// loop would have surfaced first. With one worker (or one task) it
// degenerates to a plain serial loop with early exit.
func Run[R any](p *Pool, n int, fn func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]R, n)
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Map applies fn to every item, at most p.Workers() at a time, returning
// results in item order. Error semantics match Run.
func Map[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return Run(p, len(items), func(i int) (R, error) { return fn(i, items[i]) })
}
