// Package memory implements the conversation-memory layer the paper
// augments its generator with — enabling the multi-turn analysis
// sessions of §6.3. A Conversation is one turn log, and its views are
// derived on read: a sliding buffer of recent turns, summaries of the
// turns before it, and vector recalls of relevant past findings. A
// turn is embedded when a recall first needs it, so Add is an append.
package memory

import (
	"fmt"
	"sort"
	"strings"

	"cachemind/internal/embed"
)

// Turn is one question/answer exchange, tagged for the session wire
// and checkpoint JSON.
type Turn struct {
	Question string `json:"question"`
	Answer   string `json:"answer"`
}

// Conversation is the generator's memory.
//
// Concurrency contract: not safe for concurrent use, reads included —
// Recall and ContextBlock fill the lazy vector cache. Callers serving
// concurrent traffic must guard each Conversation with a lock, for
// reads too; internal/engine keeps one per session behind a mutex.
type Conversation struct {
	bufferCap int
	turns     []Turn
	vecs      []embed.Vector // embeddings of a prefix of turns
}

// New creates a conversation memory holding bufferCap recent turns
// verbatim (minimum 1).
func New(bufferCap int) *Conversation {
	if bufferCap < 1 {
		bufferCap = 1
	}
	return &Conversation{bufferCap: bufferCap}
}

// Add records a completed turn.
func (c *Conversation) Add(question, answer string) {
	c.turns = append(c.turns, Turn{Question: question, Answer: answer})
}

// Keep drops all but the most recent n turns (negative n: keep all),
// keeping the survivors' embeddings. The survivors are renumbered from
// turn-0001, as if they had been the only turns ever added. The log is
// compacted in place, so a caller that trims at 2n never reallocates.
func (c *Conversation) Keep(n int) {
	if drop := len(c.turns) - n; n >= 0 && drop > 0 {
		c.turns = c.turns[:copy(c.turns, c.turns[drop:])]
		clear(c.turns[n : n+drop])
		c.vecs = c.vecs[:copy(c.vecs, c.vecs[min(drop, len(c.vecs)):])]
	}
}

// Turns returns a copy of the log, oldest first.
func (c *Conversation) Turns() []Turn { return append([]Turn(nil), c.turns...) }

// summarized is how many of the oldest turns fall outside the buffer.
func (c *Conversation) summarized() int { return max(0, len(c.turns)-c.bufferCap) }

// summarize compacts a turn into one line: the question plus the
// answer's leading clause.
func summarize(t Turn) string {
	ans := t.Answer
	if i := strings.IndexAny(ans, ".\n"); i > 0 {
		ans = ans[:i]
	}
	if len(ans) > 120 {
		ans = ans[:120] + "..."
	}
	return "Q: " + firstLine(t.Question) + " -> " + ans
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Len returns the number of turns in the log.
func (c *Conversation) Len() int { return len(c.turns) }

// Recent returns the buffered turns, oldest first.
func (c *Conversation) Recent() []Turn { return append([]Turn(nil), c.turns[c.summarized():]...) }

// Summaries returns the turns before the buffer, summarized.
func (c *Conversation) Summaries() []string {
	out := make([]string, c.summarized())
	for i := range out {
		out[i] = summarize(c.turns[i])
	}
	return out
}

// recallText is the text a turn is embedded and recalled as.
func recallText(t Turn) string { return t.Question + " " + t.Answer }

// Recall returns up to k past turns relevant to the question, found by
// vector similarity — the re-retrieval path for "as computed earlier"
// follow-ups. Ties break by recall ID ("turn-%04d" of the 1-based
// position) as a string. Turns added since the last Recall are embedded
// here, unless the query embeds to zero (an empty one): then all score 0.
func (c *Conversation) Recall(question string, k int) []string {
	q := embed.Embed(question)
	type match struct {
		id    string
		score float64
		turn  Turn
	}
	ms := make([]match, len(c.turns))
	for i, t := range c.turns {
		ms[i] = match{id: fmt.Sprintf("turn-%04d", i+1), turn: t}
	}
	if q != (embed.Vector{}) {
		for _, t := range c.turns[len(c.vecs):] {
			c.vecs = append(c.vecs, embed.Embed(recallText(t)))
		}
		scores := make([]float64, len(c.vecs))
		embed.Scores(&q, c.vecs, scores)
		for i, s := range scores {
			ms[i].score = s
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].score != ms[j].score {
			return ms[i].score > ms[j].score
		}
		return ms[i].id < ms[j].id
	})
	out := make([]string, 0, min(max(k, 0), len(ms)))
	for _, m := range ms[:cap(out)] {
		out = append(out, recallText(m.turn))
	}
	return out
}

// ContextBlock renders the memory contribution to a prompt: summaries
// of the five turns before the buffer, then the buffered turns
// verbatim, then vector recalls relevant to the upcoming question.
func (c *Conversation) ContextBlock(question string) string {
	var b strings.Builder
	n := c.summarized()
	if n > 0 {
		b.WriteString("Earlier findings:\n")
		for _, t := range c.turns[max(0, n-5):n] {
			b.WriteString("  " + summarize(t) + "\n")
		}
	}
	for _, t := range c.turns[n:] {
		fmt.Fprintf(&b, "User: %s\nAssistant: %s\n", firstLine(t.Question), firstLine(t.Answer))
	}
	if n > 0 {
		if recalls := c.Recall(question, 2); len(recalls) > 0 {
			b.WriteString("Recalled relevant turns:\n")
			for _, r := range recalls {
				b.WriteString("  " + firstLine(r) + "\n")
			}
		}
	}
	return strings.TrimSpace(b.String())
}
