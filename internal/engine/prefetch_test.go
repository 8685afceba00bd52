package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cachemind/internal/engine"
)

// quiesce drains the engine's background prefetch work and fails the
// test if it does not settle — counters below would be racy otherwise.
func quiesce(t testing.TB, e *engine.Engine) {
	t.Helper()
	if !e.PrefetchQuiesce(10 * time.Second) {
		t.Fatal("prefetcher did not quiesce")
	}
}

// askNoMem issues a NoMemory ask: it fills/probes the cache like any
// demand ask but is not a session turn, so it trains the predictor with
// nothing — the tests use it to apply eviction pressure without
// polluting the learned transitions.
func askNoMem(t testing.TB, e *engine.Engine, q string) engine.Response {
	t.Helper()
	resp, err := e.Ask(context.Background(), engine.Request{
		SessionID: "evictor", Question: q, Options: engine.Options{NoMemory: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestPrefetchRequiresCache(t *testing.T) {
	_, err := engine.New(engine.Config{
		Store:     testStore(t),
		CacheSize: -1,
		Prefetch:  engine.PrefetchConfig{Enabled: true},
	})
	if err == nil {
		t.Fatal("prefetch with caching disabled accepted")
	}
}

// TestPrefetchCoversPredictedAsk is the end-to-end covered-miss story:
// sessions that repeatedly ask A then B teach the predictor A→B; after
// eviction pressure pushes B out of the tiny cache, a fresh session's
// ask of A triggers a background fill of B, and the session's follow-up
// ask of B — a guaranteed miss without prefetching — is served as an
// exact hit with the covered counter advanced and the demand miss count
// unchanged by the speculative pipeline run.
func TestPrefetchCoversPredictedAsk(t *testing.T) {
	qa, qb, qc, qd := questions[0], questions[1], questions[2], questions[3]
	e := newEngine(t, engine.Config{
		Shards:    1,
		CacheSize: 2,
		Prefetch:  engine.PrefetchConfig{Enabled: true, Workers: 1},
	})
	defer e.Close()

	// Train A→B across two sessions (each ask also fills the cache).
	for i := 0; i < 2; i++ {
		sid := fmt.Sprintf("train-%d", i)
		mustAsk(t, e, sid, qa)
		mustAsk(t, e, sid, qb)
		quiesce(t, e)
	}
	// Evict A and B (cap 2, LRU): two unrelated demand fills.
	askNoMem(t, e, qc)
	askNoMem(t, e, qd)

	missesBefore := e.Stats().CacheMisses
	resp := mustAsk(t, e, "fresh", qa) // miss; observation predicts B
	if resp.Tier == engine.TierExact {
		t.Fatal("setup broken: A still resident after eviction pressure")
	}
	quiesce(t, e)

	st := e.Stats()
	if st.Prefetch.Issued == 0 {
		t.Fatalf("no prefetch issued after a predictable A→B session; stats %+v", st.Prefetch)
	}
	// The speculative fill ran a pipeline but must not count as a
	// demand miss: only the ask of A itself did.
	if got := st.CacheMisses - missesBefore; got != 1 {
		t.Fatalf("demand misses advanced by %d across ask(A)+prefetch(B), want 1", got)
	}

	resp = mustAsk(t, e, "fresh", qb)
	if resp.Tier != engine.TierExact {
		t.Fatalf("follow-up ask of B served from tier %q, want exact (prefetched)", resp.Tier)
	}
	st = e.Stats()
	if st.Prefetch.Covered != 1 {
		t.Fatalf("covered = %d after first demand touch of the prefetched entry, want 1", st.Prefetch.Covered)
	}

	// Covered credit is claimed exactly once: a repeat hit adds nothing.
	mustAsk(t, e, "fresh", qb)
	if got := e.Stats().Prefetch.Covered; got != 1 {
		t.Fatalf("covered = %d after repeat hit, want still 1", got)
	}
}

// TestPrefetchWasted: a prefetched entry evicted before any demand
// touch is wasted speculation, and must be counted as such.
func TestPrefetchWasted(t *testing.T) {
	qa, qb, qc, qd := questions[0], questions[1], questions[2], questions[3]
	e := newEngine(t, engine.Config{
		Shards:    1,
		CacheSize: 2,
		Prefetch:  engine.PrefetchConfig{Enabled: true, Workers: 1},
	})
	defer e.Close()

	for i := 0; i < 2; i++ {
		sid := fmt.Sprintf("train-%d", i)
		mustAsk(t, e, sid, qa)
		mustAsk(t, e, sid, qb)
		quiesce(t, e)
	}
	askNoMem(t, e, qc)
	askNoMem(t, e, qd)
	mustAsk(t, e, "fresh", qa) // prefetches B
	quiesce(t, e)
	if e.Stats().Prefetch.Issued == 0 {
		t.Fatal("no prefetch issued; the wasted scenario needs one")
	}
	// B sits at the LRU end (low-priority fill); one more demand fill
	// evicts it untouched.
	askNoMem(t, e, qc)
	if got := e.Stats().Prefetch.Wasted; got == 0 {
		t.Fatal("prefetched entry evicted untouched but wasted = 0")
	}
}

// TestPrefetchNeverChangesAnswers is the race test: under concurrent
// sessions with prefetching churning speculative fills through a tiny
// cache, every demand answer must be byte-identical to the no-prefetch
// oracle (answers are pure functions of the question; prefetch decides
// only what is resident). Run with -race this also proves the
// background workers share no unsynchronized state with the ask path.
func TestPrefetchNeverChangesAnswers(t *testing.T) {
	store := testStore(t)
	oracleEng, err := engine.New(engine.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[string]string, len(questions))
	for _, q := range questions {
		resp, err := oracleEng.Ask(context.Background(), engine.Request{SessionID: "oracle", Question: q})
		if err != nil {
			t.Fatal(err)
		}
		oracle[q] = resp.Text
	}

	e, err := engine.New(engine.Config{
		Store:     store,
		Shards:    2,
		CacheSize: 3, // heavy eviction pressure: fills and demand churn constantly
		Prefetch:  engine.PrefetchConfig{Enabled: true, Workers: 2, MaxFillsPerSec: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sid := fmt.Sprintf("race-%d", w)
			for i := 0; i < 3*len(questions); i++ {
				q := questions[(i+w)%len(questions)]
				resp, err := e.Ask(context.Background(), engine.Request{SessionID: sid, Question: q})
				if err != nil {
					errc <- err
					return
				}
				if resp.Text != oracle[q] {
					errc <- fmt.Errorf("answer for %q diverged under prefetch", q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	quiesce(t, e)
	st := e.Stats().Prefetch
	if st.Covered > 0 && st.Covered > st.Issued {
		t.Fatalf("covered %d exceeds issued %d", st.Covered, st.Issued)
	}
}
