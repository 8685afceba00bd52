package engine_test

import (
	"context"
	"fmt"
	"testing"

	"cachemind/internal/engine"
)

// TestCachedAskAllocs pins the allocation budget of the exact-hit fast
// path, one row per configuration the hit path branches on, so every
// function the hit path reaches is measured. cmd/loadgen enforces the
// same budget end to end in CI via -max-allocs.
//
//   - A NoMemory hit allocates nothing: the key is built in pooled
//     scratch, hashed once and probed zero-copy, and the cached answer
//     is served without copying. The semantic tier and the prefetcher
//     must not change that: the embedding is computed only on an exact
//     miss, and the prefetcher's only hit-path cost is reading the
//     entry's prefetched mark (the engine has live prefetched entries
//     when it runs).
//   - A recorded hit appends its turn to the session's log, which is
//     compacted in place at twice the retention bound, so it allocates
//     only when the log's backing array grows — under one alloc per op
//     amortized; the run is long enough to cross the compaction bound
//     several times.
//   - With the prefetcher on, a recorded hit also sends one
//     observation by value down the prefetcher's queue. That row is
//     held at 0, what it measures: AllocsPerRun reports whole allocs
//     per op, so an observation boxed on the heap (exactly one alloc
//     per ask) would still pass the recorded row's bound of 1.
func TestCachedAskAllocs(t *testing.T) {
	prefetch := engine.Config{
		Shards:          1,
		CacheSize:       8,
		MaxSessionTurns: 16,
		Prefetch:        engine.PrefetchConfig{Enabled: true, Workers: 1},
	}
	noMemory := engine.Options{NoMemory: true}
	cases := []struct {
		name     string
		cfg      engine.Config
		question string
		opts     engine.Options
		max      float64
	}{
		{"nomemory", engine.Config{Shards: 4}, questions[0], noMemory, 0},
		{"semantic", engine.Config{Shards: 4, SemanticThreshold: 0.85}, questions[1], noMemory, 0},
		{"recorded", engine.Config{Shards: 4, MaxSessionTurns: 16}, questions[2], engine.Options{}, 1},
		{"prefetch-nomemory", prefetch, questions[0], noMemory, 0},
		{"prefetch-recorded", prefetch, questions[0], engine.Options{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, tc.cfg)
			defer e.Close()
			if tc.cfg.Prefetch.Enabled {
				// Teach questions[0]→questions[1] and let a speculative
				// fill land, so the cache holds a prefetched entry during
				// the measurement.
				for i := 0; i < 2; i++ {
					sid := fmt.Sprintf("train-%d", i)
					mustAsk(t, e, sid, questions[0])
					mustAsk(t, e, sid, questions[1])
					quiesce(t, e)
				}
			}

			ctx := context.Background()
			req := engine.Request{SessionID: "alloc-" + tc.name, Question: tc.question, Options: tc.opts}
			// Warm the cache (the first ask is a cold miss) and the
			// scratch pool.
			if _, err := e.Ask(ctx, req); err != nil {
				t.Fatal(err)
			}
			quiesce(t, e)
			if tc.cfg.Prefetch.Enabled {
				// Stop the fill workers so the window counts only the
				// ask's own allocations: AllocsPerRun reads process-wide
				// counters, and a worker scheduled inside the window
				// would add the allocations of its predictions. The
				// 1024-deep queue still takes every measured
				// observation, so observe keeps its send branch.
				e.Close()
			}

			var resp engine.Response
			var err error
			allocs := testing.AllocsPerRun(200, func() {
				resp, err = e.Ask(ctx, req)
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Tier != engine.TierExact {
				t.Fatalf("tier = %v, want exact hit", resp.Tier)
			}
			if allocs > tc.max {
				t.Fatalf("cached ask allocated %.2f times per op, want <= %v", allocs, tc.max)
			}
		})
	}
}
