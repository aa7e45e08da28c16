// Package runtimes runs sequential campaigns of a Las Vegas solver:
// the paper's §5.4 step of collecting ~650 sequential runs per
// benchmark, from which Tables 1–2 are summarized and §6's
// distributions are fitted. The public lasvegas.Campaign owns the
// campaign formats (JSON, CSV, NDJSON) and the summaries.
//
// Campaign repetitions are independent (fresh problem instance, fresh
// random stream per run), so they may be collected on parallel
// workers without biasing the iteration counts; only wall-clock
// seconds are scheduling-sensitive, which is one more reason the
// paper prefers iterations as the runtime measure.
package runtimes

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lasvegas/internal/adaptive"
	"lasvegas/internal/csp"
	"lasvegas/internal/xrand"
)

// Campaign is the outcome of m sequential runs of one solver on one
// problem instance.
type Campaign struct {
	Problem    string
	Runs       int
	Seed       uint64
	Iterations []float64 // per-run iteration counts
	Seconds    []float64 // per-run wall-clock seconds
}

// Collect runs the Adaptive Search solver `runs` times on fresh
// instances from factory, each with an independent stream derived
// from seed, spreading the runs over `workers` goroutines
// (0 = GOMAXPROCS). It fails fast on the first solver error or
// context cancellation.
func Collect(ctx context.Context, factory func() (csp.Problem, error), params adaptive.Params, runs int, seed uint64, workers int) (*Campaign, error) {
	if factory == nil {
		return nil, errors.New("runtimes: nil factory")
	}
	if runs < 1 {
		return nil, fmt.Errorf("runtimes: %d runs", runs)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	probe, err := factory()
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Problem:    probe.Name(),
		Runs:       runs,
		Seed:       seed,
		Iterations: make([]float64, runs),
		Seconds:    make([]float64, runs),
	}
	root := xrand.New(seed)
	streams := make([]*xrand.Rand, runs)
	for i := range streams {
		streams[i] = root.Split(uint64(i))
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= runs {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				p, err := factory()
				if err != nil {
					fail(err)
					return
				}
				s, err := adaptive.New(p, params)
				if err != nil {
					fail(err)
					return
				}
				start := time.Now()
				res := s.RunContext(ctx, streams[i])
				if !res.Solved {
					if res.Err != nil {
						fail(fmt.Errorf("runtimes: run %d: %w", i, res.Err))
					} else {
						fail(fmt.Errorf("runtimes: run %d unsolved", i))
					}
					return
				}
				c.Iterations[i] = float64(res.Stats.Iterations)
				c.Seconds[i] = time.Since(start).Seconds()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return c, nil
}
