package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/engine"
)

// reply is what a caller observes of one ask.
type reply struct {
	ans  answer
	tier string
	// total is the serving side's own time for the ask: the engine's
	// Timings.Total in process, the wire total_ms over HTTP.
	total time.Duration
	// generation is Timings.Generation; on a cold reply it is this
	// ask's generation time.
	generation time.Duration
	// bytes is the reply body length (HTTP only).
	bytes int
}

// asker sends one ask on behalf of caller c and waits for the reply.
type asker interface {
	ask(ctx context.Context, c int, it *item) (reply, error)
}

// inproc asks an in-process engine.
type inproc struct{ eng *engine.Engine }

func (a inproc) ask(ctx context.Context, _ int, it *item) (reply, error) {
	resp, err := a.eng.Ask(ctx, engine.Request{SessionID: it.Session, Question: it.Question})
	if err != nil {
		return reply{}, err
	}
	return reply{
		ans:        answerOf(resp),
		tier:       string(resp.Tier),
		total:      resp.Timings.Total,
		generation: resp.Timings.Generation,
	}, nil
}

// tally counts ask outcomes.
type tally struct {
	answered, failed, wrong int64
	tiers                   map[string]int64
	firstErr                error
}

func (t *tally) merge(o *tally) {
	t.answered += o.answered
	t.failed += o.failed
	t.wrong += o.wrong
	if t.tiers == nil {
		t.tiers = map[string]int64{}
	}
	for k, v := range o.tiers {
		t.tiers[k] += v
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) record(chk *checker, it *item, r reply, err error) {
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("ask %q: %w", it.Question, err)
		}
		return
	}
	t.answered++
	if t.tiers == nil {
		t.tiers = map[string]int64{}
	}
	t.tiers[r.tier]++
	if !chk.ok(it.Question, r.tier, r.ans) {
		t.wrong++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("wrong %s-tier answer to %q", r.tier, it.Question)
		}
	}
}

// warm runs the plan's warmup: the serial asks on one caller, then the
// concurrent asks on all callers. Every reply is checked.
func warm(ctx context.Context, a asker, p *plan, chk *checker) *tally {
	t := &tally{}
	for i := range p.Serial {
		r, err := a.ask(ctx, 0, &p.Serial[i])
		t.record(chk, &p.Serial[i], r, err)
	}
	var next atomic.Int64
	parts := make([]tally, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(p.Concurrent)) {
					return
				}
				it := &p.Concurrent[i]
				r, err := a.ask(ctx, c, it)
				parts[c].record(chk, it, r, err)
			}
		}()
	}
	wg.Wait()
	for c := range parts {
		t.merge(&parts[c])
	}
	return t
}

// window is one measured stretch of closed-loop load.
type window struct {
	tally
	elapsed time.Duration
	lat     []time.Duration // caller-observed, one per answered ask
	// Traced windows only:
	bufs      []*spanBuf
	semantic  []string        // questions served by the semantic tier (exact misses)
	server    []time.Duration // serving-side totals
	respBytes int64
}

func (w *window) qps() float64 { return float64(w.answered) / w.elapsed.Seconds() }

// maxSemanticReplay bounds the exact-miss questions a traced window
// keeps for the embed replay.
const maxSemanticReplay = 20000

// askIDs numbers traced asks across windows.
var askIDs atomic.Uint64

// measure runs clients closed-loop callers over the plan for dur,
// continuing from *cursor (so a later window resumes the cycle where
// this one stopped). With serverSpan non-empty the window is traced:
// each ask records an ask span, a child span of that name from the
// serving side's own clock, and — for a cold in-process reply — a
// generation span after the retriever's.
func measure(ctx context.Context, a asker, p *plan, cursor *atomic.Int64, dur time.Duration, chk *checker, serverSpan string, epoch time.Time) *window {
	traced := serverSpan != ""
	type part struct {
		tally
		lat      []time.Duration
		buf      *spanBuf
		semantic []string
		server   []time.Duration
		bytes    int64
	}
	parts := make([]part, clients)
	n := int64(len(p.Items))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range clients {
		pt := &parts[c]
		pt.lat = make([]time.Duration, 0, 1<<14)
		if traced {
			pt.buf = &spanBuf{epoch: epoch, spans: make([]span, 0, 1<<15)}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				it := &p.Items[(cursor.Add(1)-1)%n]
				if !traced {
					t0 := time.Now()
					r, err := a.ask(ctx, c, it)
					d := time.Since(t0)
					pt.record(chk, it, r, err)
					if err == nil {
						pt.lat = append(pt.lat, d)
					}
					continue
				}
				id := askIDs.Add(1)
				root := pt.buf.add(span{Ask: id, Name: spanAsk, Parent: noParent})
				inner := pt.buf.add(span{Ask: id, Name: serverSpan, Parent: root})
				actx := context.WithValue(ctx, askTraceKey{}, &askTrace{buf: pt.buf, ask: id, parent: inner})
				t0 := time.Now()
				r, err := a.ask(actx, c, it)
				t1 := time.Now()
				pt.record(chk, it, r, err)
				end := int64(t1.Sub(epoch))
				pt.buf.spans[root].Start, pt.buf.spans[root].End = int64(t0.Sub(epoch)), end
				pt.buf.spans[inner].Start, pt.buf.spans[inner].End = end-int64(r.total), end
				if err != nil {
					continue
				}
				pt.lat = append(pt.lat, t1.Sub(t0))
				pt.server = append(pt.server, r.total)
				pt.bytes += int64(r.bytes)
				if r.tier == string(engine.TierSemantic) && len(pt.semantic) < maxSemanticReplay {
					pt.semantic = append(pt.semantic, it.Question)
				}
				if r.tier == string(engine.TierCold) && serverSpan == spanEngine {
					// Generation follows retrieval inside the engine;
					// its span starts where the retrieve span ended.
					gs := pt.buf.spans[inner].Start
					if last := int(inner) + 1; last < len(pt.buf.spans) && pt.buf.spans[last].Name == spanRetrieve {
						gs = pt.buf.spans[last].End
					}
					pt.buf.add(span{Ask: id, Name: spanGenerate, Parent: inner, Start: gs, End: gs + int64(r.generation)})
				}
			}
		}()
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	for c := range parts {
		pt := &parts[c]
		w.merge(&pt.tally)
		w.lat = append(w.lat, pt.lat...)
		w.semantic = append(w.semantic, pt.semantic...)
		w.server = append(w.server, pt.server...)
		w.respBytes += pt.bytes
		if pt.buf != nil {
			w.bufs = append(w.bufs, pt.buf)
		}
	}
	return w
}

// spans returns every span of a traced window, with parent indexes
// rebased onto the concatenation.
func (w *window) spans() []span {
	var out []span
	for _, b := range w.bufs {
		base := int32(len(out))
		for _, s := range b.spans {
			if s.Parent != noParent {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}
