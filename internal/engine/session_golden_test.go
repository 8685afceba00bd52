package engine_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachemind/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// recallQuestion is the upcoming question the golden session views
// recall against.
const recallQuestion = "what was the miss rate in mcf under lru?"

// TestSessionGolden pins the session-memory surface byte for byte:
// the memory block with and without a recall question after every
// turn, the final turn logs and memory views, the ExportSessions
// checkpoint bytes, and an ImportSessions → SessionView round trip.
// The bounds are small (2 buffered turns, compaction at 8 down to 4)
// so the scripts cross the verbatim buffer and the 2× compaction
// bound; "echo" repeats one turn so recall scores tie and the
// turn-ID tie-break decides. Regenerate with -update only when the
// surface is meant to change.
func TestSessionGolden(t *testing.T) {
	cfg := engine.Config{MaxSessionTurns: 4, MemoryTurns: 2, Shards: 2}
	e := newEngine(t, cfg)
	scripts := []struct {
		id string
		qs []string
	}{
		{"long", append(append([]string(nil), questions...), questions[:4]...)},
		{"echo", []string{questions[1], questions[1], questions[1], questions[1], questions[1], questions[1], questions[1], questions[1], questions[1]}},
		{"short", questions[4:7]},
	}

	var b strings.Builder
	view := func(e *engine.Engine, id, q string) ([]engine.Turn, string) {
		turns, mem, err := e.SessionView(id, q)
		if err != nil {
			t.Fatal(err)
		}
		return turns, mem
	}
	for _, s := range scripts {
		for i, q := range s.qs {
			mustAsk(t, e, s.id, q)
			_, recalled := view(e, s.id, recallQuestion)
			_, plain := view(e, s.id, "")
			fmt.Fprintf(&b, "== %s turn %d memory q=%q\n%s\n", s.id, i+1, recallQuestion, recalled)
			fmt.Fprintf(&b, "== %s turn %d memory q=\"\"\n%s\n", s.id, i+1, plain)
		}
	}
	writeViews := func(label string, e *engine.Engine) {
		for _, s := range scripts {
			turns, mem := view(e, s.id, recallQuestion)
			js, err := json.Marshal(turns)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s %s turns\n%s\n== %s %s memory\n%s\n", label, s.id, js, label, s.id, mem)
		}
	}
	writeViews("final", e)

	export, err := json.Marshal(e.ExportSessions())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== export\n%s\n", export)

	var snaps []engine.SessionSnapshot
	if err := json.Unmarshal(export, &snaps); err != nil {
		t.Fatal(err)
	}
	restored := newEngine(t, cfg)
	if n := restored.ImportSessions(snaps); n != len(scripts) {
		t.Fatalf("imported %d sessions, want %d", n, len(scripts))
	}
	writeViews("imported", restored)

	path := filepath.Join("testdata", "session_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("session surface drifted from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
