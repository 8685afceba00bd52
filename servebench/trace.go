package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/retriever"
)

// Span names: one per layer boundary the benchmark times from outside
// the program. Spans of one ask share its ask ID.
const (
	spanAsk      = "ask"                // the caller's view of one ask
	spanEngine   = "engine.ask"         // Response.Timings.Total, the engine's own clock
	spanRetrieve = "retriever.retrieve" // the timing retriever wrapper
	spanGenerate = "generator.generate" // Response.Timings.Generation of a cold reply
	spanServer   = "cachemindd.server"  // the daemon's wire total_ms
	noParent     = -1
)

// maxReplayCall bounds the retrieval calls a traced window keeps for
// the queryir and nlu replays.
const maxReplayCall = 600

// span is one timed interval. Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the same caller's span buffer.
type span struct {
	Ask    uint64
	Name   string
	Parent int32
	Start  int64
	End    int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanBuf is one caller's spans. Only that caller's goroutine appends
// to it — the engine runs Retrieve on the asking goroutine — so it
// needs no lock.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// add appends s and returns its index.
func (b *spanBuf) add(s span) int32 {
	b.spans = append(b.spans, s)
	return int32(len(b.spans) - 1)
}

// askTrace rides the ask's context into the retriever wrapper: where
// to record, under which ask and parent span.
type askTrace struct {
	buf    *spanBuf
	ask    uint64
	parent int32
}

type askTraceKey struct{}

// timedRetriever wraps the engine's retriever (engine.Config.
// CustomRetriever). It forwards Name, so cache keys are unchanged, and
// on traced asks records a retrieve span plus the call's query counts.
type timedRetriever struct {
	inner retriever.Retriever

	calls   atomic.Int64
	queries atomic.Int64
	qerrors atomic.Int64

	mu      sync.Mutex
	replays []retriever.Context // the first maxReplayCall traced calls
}

func (r *timedRetriever) Name() string { return r.inner.Name() }

func (r *timedRetriever) Retrieve(ctx context.Context, question string) retriever.Context {
	at, _ := ctx.Value(askTraceKey{}).(*askTrace)
	if at == nil {
		return r.inner.Retrieve(ctx, question)
	}
	start := at.buf.now()
	rc := r.inner.Retrieve(ctx, question)
	at.buf.add(span{Ask: at.ask, Name: spanRetrieve, Parent: at.parent, Start: start, End: at.buf.now()})
	r.calls.Add(1)
	r.queries.Add(int64(len(rc.Executed)))
	for _, ex := range rc.Executed {
		if ex.Err != nil {
			r.qerrors.Add(1)
		}
	}
	r.mu.Lock()
	if len(r.replays) < maxReplayCall {
		r.replays = append(r.replays, rc)
	}
	r.mu.Unlock()
	return rc
}

// selfTimes returns, per span name, each span's self time: its
// duration minus the durations of its children.
func selfTimes(spans []span) map[string][]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != noParent {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-child[i])
	}
	return out
}

// coverage checks that the layer spans of the asks add back up to the
// ask spans: it returns the share of the summed ask time that no child
// span covers, and the most negative summed self time of any layer as
// a share of ask time (a child outlasting its parent).
func coverage(spans []span) (unattributed, overlap float64) {
	self := selfTimes(spans)
	var askTotal time.Duration
	for _, s := range spans {
		if s.Name == spanAsk {
			askTotal += s.dur()
		}
	}
	if askTotal == 0 {
		return 0, 0
	}
	for name, ds := range self {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		share := float64(sum) / float64(askTotal)
		if name == spanAsk {
			unattributed = share
		} else if share < overlap {
			overlap = share
		}
	}
	return unattributed, -overlap
}

// writeSpans writes every span as one tab-separated line: ask ID, span
// index, parent index, name, start and end in nanoseconds.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "ask\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, b := range bufs {
		for i, s := range b.spans {
			parent := "-"
			if s.Parent != noParent {
				parent = fmt.Sprintf("%d.%d", c, s.Parent)
			}
			fmt.Fprintf(w, "%d\t%d.%d\t%s\t%s\t%d\t%d\n", s.Ask, c, i, parent, s.Name, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
