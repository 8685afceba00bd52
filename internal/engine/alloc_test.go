package engine_test

import (
	"context"
	"testing"

	"cachemind/internal/engine"
)

// TestCachedAskAllocs pins the allocation budget of the exact-hit fast
// path: a cached ask with NoMemory (no session recording) must allocate
// nothing — the key is built in pooled scratch, hashed once, and probed
// zero-copy, and the cached answer is served without copying. This is
// the unit-level half of the perf gate; cmd/loadgen enforces the same
// budget end-to-end in CI via -max-allocs.
func TestCachedAskAllocs(t *testing.T) {
	e := newEngine(t, engine.Config{Shards: 4})
	ctx := context.Background()
	req := engine.Request{
		SessionID: "alloc",
		Question:  questions[0],
		Options:   engine.Options{NoMemory: true},
	}
	// Warm the cache (the first ask is a cold miss) and the scratch pool.
	if _, err := e.Ask(ctx, req); err != nil {
		t.Fatal(err)
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
	if allocs != 0 {
		t.Fatalf("cached NoMemory ask allocated %.1f times per op, want 0", allocs)
	}
}

// TestCachedAskAllocsSemanticEnabled: enabling the semantic tier must
// not tax the exact-hit fast path — the embedding is computed only on
// an exact miss, so a byte-identical repeat still allocates nothing.
func TestCachedAskAllocsSemanticEnabled(t *testing.T) {
	e := newEngine(t, engine.Config{Shards: 4, SemanticThreshold: 0.85})
	ctx := context.Background()
	req := engine.Request{
		SessionID: "alloc-sem",
		Question:  questions[1],
		Options:   engine.Options{NoMemory: true},
	}
	if _, err := e.Ask(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Ask(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached ask with semantic tier enabled allocated %.1f times per op, want 0", allocs)
	}
}

// TestCachedAskAllocsWithMemory bounds the full default path (session
// recording on): recording a turn is an append to the session's log,
// which is compacted in place at twice the retention bound, so a
// recorded cached hit allocates only when the log's backing array
// grows — under one alloc per op amortized. The run is long enough to
// cross the compaction bound several times.
func TestCachedAskAllocsWithMemory(t *testing.T) {
	e := newEngine(t, engine.Config{Shards: 4, MaxSessionTurns: 16})
	ctx := context.Background()
	req := engine.Request{SessionID: "alloc-mem", Question: questions[2]}
	if _, err := e.Ask(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Ask(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cached recorded ask allocated %.1f times per op, want <= 1", allocs)
	}
}
