package memory

import (
	"fmt"
	"strings"
	"testing"

	"cachemind/internal/embed"
)

func TestSlidingBuffer(t *testing.T) {
	c := New(3)
	for i := 1; i <= 5; i++ {
		c.Add(fmt.Sprintf("question %d", i), fmt.Sprintf("answer %d.", i))
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d", c.Len())
	}
	recent := c.Recent()
	if len(recent) != 3 {
		t.Fatalf("buffer holds %d, want 3", len(recent))
	}
	if recent[0].Question != "question 3" || recent[2].Question != "question 5" {
		t.Errorf("buffer contents: %+v", recent)
	}
	sums := c.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	if !strings.Contains(sums[0], "question 1") {
		t.Errorf("summary 0 = %q", sums[0])
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New(0)
	c.Add("a", "b")
	c.Add("c", "d")
	if len(c.Recent()) != 1 {
		t.Error("capacity should clamp to 1")
	}
}

func TestSummarizeTruncates(t *testing.T) {
	long := strings.Repeat("w ", 200)
	s := summarize(Turn{Question: "q", Answer: long})
	if len(s) > 200 {
		t.Errorf("summary too long: %d bytes", len(s))
	}
	s = summarize(Turn{Question: "q", Answer: "first sentence. second sentence."})
	if strings.Contains(s, "second") {
		t.Errorf("summary should keep only the first clause: %q", s)
	}
}

func TestRecallFindsRelevantTurn(t *testing.T) {
	c := New(2)
	c.Add("List all unique PCs in the trace", "0x400444, 0x400512, 0x400701")
	c.Add("What is the weather", "irrelevant")
	c.Add("Compute mean ETR per PC", "PC 0x400512 has mean ETR 912")
	c.Add("Another filler turn", "filler")
	got := c.Recall("which PC had the highest mean ETR?", 1)
	if len(got) != 1 || !strings.Contains(got[0], "ETR") {
		t.Errorf("Recall = %v", got)
	}
}

func TestContextBlockStructure(t *testing.T) {
	c := New(2)
	for i := 1; i <= 4; i++ {
		c.Add(fmt.Sprintf("q%d about reuse distance", i), fmt.Sprintf("a%d.", i))
	}
	block := c.ContextBlock("follow-up about reuse distance")
	if !strings.Contains(block, "Earlier findings:") {
		t.Errorf("missing summaries section:\n%s", block)
	}
	if !strings.Contains(block, "User: q3") || !strings.Contains(block, "User: q4") {
		t.Errorf("missing recent turns:\n%s", block)
	}
	if !strings.Contains(block, "Recalled relevant turns:") {
		t.Errorf("missing recalls:\n%s", block)
	}
}

func TestContextBlockEmpty(t *testing.T) {
	c := New(4)
	if got := c.ContextBlock("anything"); got != "" {
		t.Errorf("fresh memory block = %q", got)
	}
}

func TestContextBlockCapsSummaries(t *testing.T) {
	c := New(1)
	for i := 0; i < 20; i++ {
		c.Add(fmt.Sprintf("q%d", i), "a.")
	}
	block := c.ContextBlock("q")
	lines := 0
	for _, l := range strings.Split(block, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "Q: ") {
			lines++
		}
	}
	if lines > 5 {
		t.Errorf("context block includes %d summaries, want <= 5", lines)
	}
}

// TestRecallTieBreaksByIDString: equal recall scores are ordered by the
// "turn-%04d" ID compared as a string, so once a conversation passes
// 9999 turns, turn-10000 sorts ahead of turn-2000. Embedding is
// case-insensitive, so the two spellings below score identically.
func TestRecallTieBreaksByIDString(t *testing.T) {
	c := New(1)
	for i := 1; i <= 10000; i++ {
		switch i {
		case 2000:
			c.Add("Echo", "SAME")
		case 10000:
			c.Add("echo", "same")
		default:
			c.Add(fmt.Sprintf("filler %d", i), "x")
		}
	}
	if got := c.Recall("echo same", 1); len(got) != 1 || got[0] != "echo same" {
		t.Errorf("Recall = %q, want the turn-10000 text", got)
	}
}

// TestVectorsOnFirstRecall: Add embeds nothing; a recall embeds the
// turns added since the last one; an empty query, which scores every
// turn 0, embeds nothing at all.
func TestVectorsOnFirstRecall(t *testing.T) {
	c := New(1)
	for i := 1; i <= 4; i++ {
		c.Add(fmt.Sprintf("q%d", i), fmt.Sprintf("a%d.", i))
	}
	if len(c.vecs) != 0 {
		t.Fatalf("Add embedded %d turns eagerly", len(c.vecs))
	}
	c.ContextBlock("")
	if len(c.vecs) != 0 {
		t.Fatalf("an empty-query view embedded %d turns", len(c.vecs))
	}
	c.Recall("q2", 1)
	c.Add("q5", "a5.")
	if len(c.vecs) != 4 {
		t.Fatalf("after one recall %d of 5 turns embedded, want 4", len(c.vecs))
	}
	c.ContextBlock("q5")
	for i, turn := range c.turns {
		if c.vecs[i] != embed.Embed(recallText(turn)) {
			t.Fatalf("vector %d is not the embedding of its turn", i)
		}
	}
}

// TestKeepMatchesFreshConversation: Keep drops the oldest turns, keeps
// the survivors' vectors without re-embedding them, and renumbers
// recall IDs — every view equals that of a fresh Conversation fed only
// the survivors.
func TestKeepMatchesFreshConversation(t *testing.T) {
	c := New(2)
	for i := 1; i <= 8; i++ {
		c.Add(fmt.Sprintf("q%d about reuse", i), fmt.Sprintf("a%d.", i))
	}
	c.Recall("reuse", 1)
	c.Add("q9 about reuse", "a9.")
	c.Keep(4)
	if c.Len() != 4 || len(c.vecs) != 3 {
		t.Fatalf("after Keep(4): %d turns, %d vectors; want 4, 3", c.Len(), len(c.vecs))
	}
	fresh := New(2)
	for _, turn := range c.Turns() {
		fresh.Add(turn.Question, turn.Answer)
	}
	for _, q := range []string{"", "reuse", "q7 about reuse a7", "q9"} {
		if got, want := c.ContextBlock(q), fresh.ContextBlock(q); got != want {
			t.Errorf("ContextBlock(%q) after Keep:\n%s\nfresh:\n%s", q, got, want)
		}
	}
	c.Keep(10)
	if c.Len() != 4 {
		t.Errorf("Keep above Len trimmed to %d turns", c.Len())
	}
}
