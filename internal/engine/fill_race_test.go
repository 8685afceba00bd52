package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cachemind/internal/db/dbtest"
)

// TestFillRacingDemandRunsOnePipelinePerQuestion: prefetch fills and
// demand asks racing over the same questions run the pipeline once per
// question. A key's residency and its in-flight call are claimed under
// one shard lock, so a fill that reaches a key just after a demand
// leader published it finds the answer resident instead of leading a
// second pipeline (and the reverse for a demand ask after a fill). A
// redundant fill would show up twice: as an extra Issued, and as a
// Wasted publish onto an already-resident key. The window between two
// separate probes is narrow, so the run races many questions.
func TestFillRacingDemandRunsOnePipelinePerQuestion(t *testing.T) {
	e, err := New(Config{
		Store:     dbtest.Store(t, dbtest.Config{Workloads: []string{"mcf", "lbm"}, Accesses: 4000}),
		CacheSize: 4096,
		Prefetch:  PrefetchConfig{Enabled: true, MaxFillsPerSec: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 1000
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("What is the miss rate in mcf under lru? (%d)", i)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, q := range qs {
				e.pf.fill(q)
			}
		}()
		go func() {
			defer wg.Done()
			for _, q := range qs {
				req := Request{SessionID: "s", Question: q, Options: Options{NoMemory: true}}
				if _, err := e.Ask(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if got := st.Prefetch.Issued + st.CacheMisses; got != n || st.Prefetch.Wasted != 0 {
		t.Fatalf("%d questions ran %d pipelines (%d fills, %d demand misses), %d fills wasted; want %d and 0",
			n, got, st.Prefetch.Issued, st.CacheMisses, st.Prefetch.Wasted, n)
	}
}
