package main

import (
	"context"
	"testing"

	"cachemind/internal/engine"
)

func TestCheckerAcceptsServedAnswersAndRejectsCorruption(t *testing.T) {
	st := testStore(t)
	p, err := buildPlan(wlHot, st, 3)
	if err != nil {
		t.Fatal(err)
	}
	questions := p.distinctQuestions()[:12]
	chk, err := newChecker(context.Background(), st, questions)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range questions {
		for range 2 { // cold, then exact
			resp, err := eng.Ask(context.Background(), engine.Request{Question: q})
			if err != nil {
				t.Fatal(err)
			}
			if !chk.ok(q, string(resp.Tier), answerOf(resp)) {
				t.Fatalf("%s-tier answer to %q rejected", resp.Tier, q)
			}
		}
	}

	q0, q1 := questions[0], questions[1]
	good := chk.byQuestion[q0]
	if !chk.ok(q1, string(engine.TierSemantic), good) {
		t.Error("semantic reply carrying another plan question's answer rejected")
	}
	if chk.ok(q1, string(engine.TierExact), good) && good != chk.byQuestion[q1] {
		t.Error("exact reply carrying another question's answer accepted")
	}

	// Corrupt the reference: the same served answer must now fail.
	bad := good
	bad.Text += " (corrupted)"
	chk.byQuestion[q0] = bad
	if chk.ok(q0, string(engine.TierExact), good) || chk.ok(q0, string(engine.TierCold), good) {
		t.Error("answer accepted against a corrupted reference")
	}
	delete(chk.byText, good.Text)
	if chk.ok(q0, string(engine.TierSemantic), good) {
		t.Error("semantic answer accepted with its reference removed")
	}
	if chk.ok(q0, "no-such-tier", good) {
		t.Error("unknown tier accepted")
	}

	// A wrong field other than the text fails too.
	chk.byQuestion[q0] = good
	flipped := good
	flipped.Grounded = !flipped.Grounded
	if chk.ok(q0, string(engine.TierExact), flipped) {
		t.Error("answer with a flipped Grounded flag accepted")
	}
}
