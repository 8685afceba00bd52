package main

import (
	"context"
	"fmt"
	"slices"

	"cachemind/internal/db"
	"cachemind/internal/engine"
)

// answer is the part of a reply the output check compares: every
// field the pipeline derives from the question.
type answer struct {
	Text     string
	Verdict  string
	Category string
	Quality  string
	Grounded bool
}

func answerOf(r engine.Response) answer {
	return answer{Text: r.Text, Verdict: r.Verdict, Category: r.Category, Quality: r.Quality, Grounded: r.Grounded}
}

// checker holds the uncached pipeline's answer to every question of a
// plan. It is built outside the timed windows and outside setup_s.
type checker struct {
	byQuestion map[string]answer
	// byText indexes the same answers by their text: a semantic-tier
	// reply is correct when it is some plan question's answer. Distinct
	// questions can share a text and differ in another field.
	byText map[string][]answer
}

// newChecker answers each question once through a cache-disabled
// engine over store — the reference every served reply must match.
func newChecker(ctx context.Context, store *db.Store, questions []string) (*checker, error) {
	eng, err := engine.New(engine.Config{Store: store, CacheSize: -1})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer eng.Close()
	reqs := make([]engine.Request, len(questions))
	for i, q := range questions {
		reqs[i] = engine.Request{Question: q, Options: engine.Options{NoMemory: true}}
	}
	c := &checker{byQuestion: map[string]answer{}, byText: map[string][]answer{}}
	for i, res := range eng.AskBatch(ctx, reqs, clients) {
		if res.Err != nil {
			return nil, fmt.Errorf("reference answer for %q: %w", questions[i], res.Err)
		}
		a := answerOf(res.Response)
		c.byQuestion[questions[i]] = a
		if !slices.Contains(c.byText[a.Text], a) {
			c.byText[a.Text] = append(c.byText[a.Text], a)
		}
	}
	return c, nil
}

// ok reports whether got is a correct reply to question served from
// tier: exact and cold replies must equal the question's own reference
// answer byte for byte, semantic replies the reference answer of some
// plan question.
func (c *checker) ok(question, tier string, got answer) bool {
	switch engine.CacheTier(tier) {
	case engine.TierExact, engine.TierCold:
		want, found := c.byQuestion[question]
		return found && want == got
	case engine.TierSemantic:
		return slices.Contains(c.byText[got.Text], got)
	}
	return false
}
