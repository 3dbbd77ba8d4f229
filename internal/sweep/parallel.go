package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Engine is the deterministic parallel trial runner. It fans a sweep's
// trial grid across a worker pool; every trial owns an isolated
// sim.Kernel and RNG (both are created inside the trial from its seeded
// cluster.Config), so trials share nothing and any interleaving of
// workers produces the same per-trial results. Outputs are gathered
// into index-addressed slices, which restores deterministic grid order
// regardless of completion order: figure tables and CSV exports are
// byte-identical to the sequential path.
//
// Parallelism semantics: <= 0 uses GOMAXPROCS; 1 is the legacy
// sequential path (trials run inline on the calling goroutine, no pool
// is started); N > 1 runs up to N trials concurrently.
type Engine struct {
	Parallelism int
}

// workers resolves the worker count for n trials.
func (e Engine) workers(n int) int {
	p := e.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ForEach runs fn(0) … fn(n-1) across the pool and returns the
// lowest-index error (all indices are attempted even when one fails,
// so the reported failure does not depend on worker interleaving).
// Callers communicate results by writing into slot i of a pre-sized
// slice: index addressing is what makes the gather deterministic.
func (e Engine) ForEach(n int, fn func(i int) error) error {
	return e.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// ForEachContext is ForEach with cancellation: once ctx is done no new
// trial starts, and the returned error is the lowest-index trial error
// if any trial failed, otherwise ctx's error. Trials already running
// when ctx fires are expected to observe the ctx they were handed and
// return promptly. A trial that panics does not take down the process:
// the panic is recovered in the worker and converted into that trial's
// error (with the trial index and stack attached), preserving the
// lowest-index-error-wins contract.
func (e Engine) ForEachContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if e.workers(n) == 1 {
		// Legacy sequential path: no goroutines, fail fast. The error,
		// if any, is necessarily the lowest-index one.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeTrial(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					// Cancelled: drain the channel without starting
					// further trials.
					continue
				}
				errs[i] = safeTrial(ctx, i, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// safeTrial runs one trial with panic isolation: a panicking trial is
// converted into an error carrying the trial index and stack trace, so
// one bad trial cannot take down the whole sweep (or, above it, the
// tlsimd daemon process).
func safeTrial(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: trial %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(ctx, i)
}

// Gather maps job over configs on the engine's pool and returns the
// results in input order.
func Gather[C, R any](e Engine, configs []C, job func(C) (R, error)) ([]R, error) {
	return GatherContext(context.Background(), e, configs,
		func(_ context.Context, c C) (R, error) { return job(c) })
}

// GatherContext is Gather with cancellation threaded through the
// engine into every job.
func GatherContext[C, R any](ctx context.Context, e Engine, configs []C,
	job func(context.Context, C) (R, error)) ([]R, error) {
	results := make([]R, len(configs))
	err := e.ForEachContext(ctx, len(configs), func(ctx context.Context, i int) error {
		r, err := job(ctx, configs[i])
		if err != nil {
			return fmt.Errorf("sweep: trial %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Trial names one cell of a sweep's (scenario, policy, seed) grid.
// Sweeps that don't vary one of the axes leave it at its zero value.
type Trial struct {
	Scenario string
	Policy   string
	Seed     int64
}

// GridTrials enumerates the full cross product in canonical grid order:
// scenario-major, then policy, then seed (seeds count consecutively up
// from baseSeed). The order is the contract — result row i of a sweep
// built from GridTrials corresponds to trial i here, sequential or not.
func GridTrials(scenarios, policies []string, baseSeed int64, seeds int) []Trial {
	if seeds < 1 {
		seeds = 1
	}
	if len(scenarios) == 0 {
		scenarios = []string{""}
	}
	if len(policies) == 0 {
		policies = []string{""}
	}
	out := make([]Trial, 0, len(scenarios)*len(policies)*seeds)
	for _, sc := range scenarios {
		for _, pol := range policies {
			for s := 0; s < seeds; s++ {
				out = append(out, Trial{Scenario: sc, Policy: pol, Seed: baseSeed + int64(s)})
			}
		}
	}
	return out
}
