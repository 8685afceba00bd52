package main

import (
	"reflect"
	"sync"
	"testing"

	"cachemind/internal/db"
	"cachemind/internal/engine"
)

// testAccesses keeps the tests' stores small; the benchmark itself uses
// cachemindd's default.
const testAccesses = 4000

var (
	storeOnce sync.Once
	store     *db.Store
	storeErr  error
)

func testStore(t *testing.T) *db.Store {
	t.Helper()
	storeOnce.Do(func() { store, storeErr = engine.OpenStore("", testAccesses, storeSeed, 0) })
	if storeErr != nil {
		t.Fatal(storeErr)
	}
	return store
}

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	st := testStore(t)
	for _, wl := range workloads {
		a, err := buildPlan(wl, st, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(wl, st, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans for seed 7 differ", wl)
		}
		c, err := buildPlan(wl, st, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Items, c.Items) {
			t.Errorf("%s: seeds 7 and 8 give the same asks", wl)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	st := testStore(t)
	cold, err := buildPlan(wlCold, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cold.distinctQuestions()); n != len(cold.Items) || n <= 2*cacheSize {
		t.Errorf("cold-grounded: %d asks, %d distinct; want all distinct and more than twice the %d-entry cache", len(cold.Items), n, cacheSize)
	}
	if cold.SemanticThreshold != 0 || len(cold.Serial) != 0 || len(cold.Concurrent) != cacheSize {
		t.Errorf("cold-grounded: threshold %v, warmup %d+%d; want semantic off and a %d-ask warmup", cold.SemanticThreshold, len(cold.Serial), len(cold.Concurrent), cacheSize)
	}
	hot, err := buildPlan(wlHot, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	httpPlan, err := buildPlan(wlHotHTTP, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hot.Items, httpPlan.Items) {
		t.Error("hot-sessions and hot-sessions-http must send the same plan")
	}
	if len(hot.Items) != hotPlanLen || hot.SemanticThreshold != semanticThreshold {
		t.Errorf("hot-sessions: %d asks at threshold %v", len(hot.Items), hot.SemanticThreshold)
	}
	if len(hot.Serial) != len(hot.distinctQuestions()) {
		t.Errorf("hot-sessions: serial warmup %d, want every distinct question (%d)", len(hot.Serial), len(hot.distinctQuestions()))
	}
	seen := map[string]bool{}
	for _, it := range hot.Items {
		seen[it.Session] = true
	}
	if len(seen) != sessions {
		t.Errorf("hot-sessions: %d sessions, want %d", len(seen), sessions)
	}
	if _, err := buildPlan("no-such-workload", st, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
