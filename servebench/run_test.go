package main

import (
	"context"
	"testing"
)

// TestTracedRunsReportEveryLayer runs both in-process workloads traced
// and checks the per-layer result: the full metric set, layer spans
// that add up to the ask spans, and the layers each workload reaches.
func TestTracedRunsReportEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced workloads")
	}
	for _, tc := range []struct {
		workload string
		calls    float64 // retriever calls per ask
	}{{wlCold, 1}, {wlHot, 0}} {
		cfg := config{workload: tc.workload, seed: 2, seconds: 1, trace: 1, out: t.TempDir(), accesses: testAccesses}
		res, _, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct %v, %d of %d failed", tc.workload, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", tc.workload, len(res.Metrics), len(perLayer))
		}
		m := func(name string) float64 { return res.Metrics[name].Value }
		if got := m("trace.unattributed_frac"); got < 0 || got > maxSpanShare {
			t.Errorf("%s: unattributed share %v", tc.workload, got)
		}
		if got := m("retriever.calls_per_ask"); got != tc.calls {
			t.Errorf("%s: retriever calls per ask %v, want %v", tc.workload, got, tc.calls)
		}
		if m("engine.self_us.p50") <= 0 || m("trace.asks") <= 0 || m("engine.allocs_per_ask") <= 0 {
			t.Errorf("%s: engine layer not measured: %v", tc.workload, res.Metrics)
		}
	}
}
