package lint_test

import (
	"testing"

	"cachemind/internal/lint"
	"cachemind/internal/lint/linttest"
)

// Each fixture contains both sanctioned idioms (which must stay
// silent) and deliberate violations (marked with want comments, which
// must fire) — so a no-op regression in an analyzer fails its test.

func TestDeterminism(t *testing.T) {
	linttest.Run(t, lint.DeterminismAnalyzer, "determinism")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlowAnalyzer, "ctxflow")
}

func TestLockScope(t *testing.T) {
	linttest.Run(t, lint.LockScopeAnalyzer, "lockscope")
}

// TestRegistry pins the suite composition: the driver runs exactly
// these three passes.
func TestRegistry(t *testing.T) {
	want := []string{"determinism", "ctxflow", "lockscope"}
	if len(lint.Analyzers) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(lint.Analyzers), len(want))
	}
	for i, a := range lint.Analyzers {
		if a.Name != want[i] {
			t.Errorf("Analyzers[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc or Run", a.Name)
		}
	}
}
