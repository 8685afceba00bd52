package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cachemind/internal/engine"
	"cachemind/internal/retriever"
)

// TestCachePolicyRegistry: the acceptance-criteria names resolve, the
// offline-only policies and unknown names are rejected at Config
// validation, and CachePolicies lists every accepted name.
func TestCachePolicyRegistry(t *testing.T) {
	names := engine.CachePolicies()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"lru", "srrip", "hawkeye"} {
		if !have[want] {
			t.Fatalf("CachePolicies() missing %q: %v", want, names)
		}
	}
	// Every listed name — plus the "rrip" alias the acceptance criteria
	// name (accepted but unlisted, so sweeps don't run srrip twice) —
	// builds an engine.
	for _, n := range append(names, "rrip") {
		if e := newEngine(t, engine.Config{CachePolicy: n, CacheSize: 8, Shards: 1}); e.CachePolicyName() != n {
			t.Fatalf("CachePolicyName() = %q, want %q", e.CachePolicyName(), n)
		}
	}
	for _, bad := range []string{"belady", "parrot", "optimal-prime"} {
		if _, err := engine.New(engine.Config{Store: testStore(t), CachePolicy: bad}); err == nil {
			t.Fatalf("CachePolicy %q accepted", bad)
		}
	}
	// An invalid policy fails fast even with caching disabled.
	if _, err := engine.New(engine.Config{Store: testStore(t), CachePolicy: "nope", CacheSize: -1}); err == nil {
		t.Fatal("invalid policy accepted when caching is disabled")
	}
}

// TestPolicyAnswersByteIdentical is the policy-bridge determinism
// contract: every registered policy replays the fixed ask sequence
// with answers byte-identical to the LRU engine's — eviction policies
// decide residency, never bytes — while hit+miss totals always balance
// against the answered-ask count (only the hit/miss split may differ
// between policies).
func TestPolicyAnswersByteIdentical(t *testing.T) {
	seq := askSequence()
	run := func(policyName string) []string {
		// A small cache forces real evictions so every policy's Victim
		// path actually runs.
		e := newEngine(t, engine.Config{CachePolicy: policyName, CacheSize: 4, Shards: 1})
		answers := make([]string, len(seq))
		for i, item := range seq {
			resp, err := e.Ask(context.Background(), item)
			if err != nil {
				t.Fatalf("%s ask %d: %v", policyName, i, err)
			}
			answers[i] = resp.Text
		}
		st := e.Stats()
		if st.CachePolicy != policyName {
			t.Fatalf("Stats.CachePolicy = %q, want %q", st.CachePolicy, policyName)
		}
		if got := st.CacheHits + st.CacheMisses; got != uint64(len(seq)) {
			t.Fatalf("%s: hits(%d)+misses(%d) = %d, want %d answered asks",
				policyName, st.CacheHits, st.CacheMisses, got, len(seq))
		}
		var perShard uint64
		for _, cs := range st.CacheShards {
			perShard += cs.Hits + cs.Misses
		}
		if perShard != st.CacheHits+st.CacheMisses {
			t.Fatalf("%s: per-shard totals (%d) disagree with the global counters (%d)",
				policyName, perShard, st.CacheHits+st.CacheMisses)
		}
		return answers
	}

	ref := run("lru")
	for _, name := range engine.CachePolicies() {
		if name == "lru" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			got := run(name)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("answer %d diverges from the LRU reference under %s:\nlru: %q\n%s: %q",
						i, name, ref[i], name, got[i])
				}
			}
		})
	}
}

// TestPolicyShardedHammer runs the 16-goroutine race hammer at shards
// 1 and 8 for every registered policy — the policy adapters sit on the
// hottest lock in the engine, so each must survive -race under real
// concurrency with byte-identical answers.
func TestPolicyShardedHammer(t *testing.T) {
	for _, name := range engine.CachePolicies() {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				hammer(t, engine.Config{CachePolicy: name, Shards: shards, CacheSize: 4})
			})
		}
	}
}

// TestFollowerRetryCountsOnce pins the hit/miss counter invariant
// under leader cancellation (run with -race in CI): when a
// single-flight leader aborts, each follower — whether it re-elects
// itself leader, coalesces on the new call, or finds the answer
// resident when it claims the key again — lands in the hit/miss totals
// exactly once, so hits+misses equals the number of answered asks and
// the miss count is exactly the one pipeline run.
func TestFollowerRetryCountsOnce(t *testing.T) {
	gr := &gatedRetriever{inner: retriever.NewRanger(testStore(t)), release: make(chan struct{})}
	e := newEngine(t, engine.Config{CustomRetriever: gr, Shards: 1})
	q := questions[0]

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Ask(leaderCtx, engine.Request{SessionID: "leader", Question: q})
		leaderErr <- err
	}()
	for gr.started() < 1 {
		time.Sleep(time.Millisecond)
	}

	const followers = 8
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ask(e, fmt.Sprintf("f%d", i), q)
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			if resp.Text == "" {
				t.Errorf("follower %d: empty answer", i)
			}
		}(i)
	}
	// Abort the leader while it holds the flight, wait for a follower
	// to re-elect itself leader, then let the new flight complete.
	leaderCancel()
	if err := <-leaderErr; engine.ErrorCode(err) != engine.CodeCanceled {
		t.Fatalf("leader error = %v, want canceled", err)
	}
	for gr.started() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(gr.release)
	wg.Wait()

	st := e.Stats()
	// The canceled leader counts nothing; the 8 answered followers
	// count exactly once each — the re-elected leader ran the pipeline
	// (the one miss), every other follower was served from its call or
	// found the answer resident at claim (hits).
	if got := st.CacheHits + st.CacheMisses; got != followers {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d (every answered follower counted exactly once)",
			st.CacheHits, st.CacheMisses, got, followers)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("misses = %d, want exactly the re-elected leader's pipeline run", st.CacheMisses)
	}
	if st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1 (the aborted leader)", st.Canceled)
	}
	// A late ask is a plain cache hit and keeps the ledger balanced.
	if resp := mustAsk(t, e, "late", q); !resp.Cached {
		t.Fatal("post-flight ask missed the cache")
	}
	if st := e.Stats(); st.CacheHits+st.CacheMisses != followers+1 {
		t.Fatalf("hits+misses = %d, want %d answered asks", st.CacheHits+st.CacheMisses, followers+1)
	}
}
