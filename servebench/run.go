package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"cachemind/internal/bench"
	"cachemind/internal/db"
	"cachemind/internal/embed"
	"cachemind/internal/engine"
	"cachemind/internal/llm"
	"cachemind/internal/memory"
	"cachemind/internal/nlu"
	"cachemind/internal/queryir"
	"cachemind/internal/retriever"
)

// maxSpanShare is how far the layer spans of the asks may fall short
// of (or overrun) the ask spans, as a share of summed ask time.
const maxSpanShare = 0.10

// runState accumulates one run's result.
type runState struct {
	cfg      config
	plan     *plan
	chk      *checker
	res      *result
	problems []string
	epoch    time.Time
}

func (s *runState) put(name string, v float64, unit string) {
	s.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// absorb folds a tally's failures and wrong answers into the result.
func (s *runState) absorb(phase string, t *tally, measured bool) {
	if measured {
		s.res.Attempted += t.answered + t.failed
		s.res.Failed += t.failed
	}
	if t.failed > 0 || t.wrong > 0 {
		s.problems = append(s.problems, fmt.Sprintf("%s: %d failed, %d wrong (first: %v)", phase, t.failed, t.wrong, t.firstErr))
	}
}

// run executes one benchmark run. Inputs come first and are not timed:
// a reference store, the plan, the uncached reference answers and (for
// end-to-end runs) the CacheMindBench grades. The serving side then
// builds its own store, engine or daemon and is set up, warmed and
// measured.
func run(ctx context.Context, cfg config) (*result, stamp, error) {
	st := newStamp(cfg)
	s := &runState{cfg: cfg, res: &result{Metrics: map[string]metric{}}, epoch: time.Now()}

	t := time.Now()
	refStore, err := engine.OpenStore("", cfg.accesses, storeSeed, 0)
	if err != nil {
		return nil, st, fmt.Errorf("build reference store: %w", err)
	}
	refBuild := time.Since(t)
	if s.plan, err = buildPlan(cfg.workload, refStore, cfg.seed); err != nil {
		return nil, st, err
	}
	questions := s.plan.distinctQuestions()
	st.PlanAsks, st.PlanUnique = len(s.plan.Items), len(questions)
	if s.chk, err = newChecker(ctx, refStore, questions); err != nil {
		return nil, st, err
	}
	if cfg.trace == 0 {
		tg, ara, err := grade(refStore, cfg.seed)
		if err != nil {
			return nil, st, err
		}
		s.put("tg_accuracy_pct", tg, "%")
		s.put("ara_score_pct", ara, "%")
	}
	refStore = nil

	if cfg.workload == wlHotHTTP {
		err = s.runHTTP(ctx, refBuild)
	} else {
		err = s.runInProcess(ctx)
	}
	if err != nil {
		return nil, st, err
	}
	if err := s.complete(); err != nil {
		return nil, st, err
	}
	s.res.Correct = len(s.problems) == 0
	for _, p := range s.problems {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", p)
	}
	return s.res, st, nil
}

// grade scores the run's CacheMindBench suites with CacheMind's default
// pairing: Ranger for the trace-grounded tier, Sieve for analysis.
func grade(store *db.Store, seed int64) (tg, ara float64, err error) {
	suite, err := suites(store, seed, planSuites)
	if err != nil {
		return 0, 0, err
	}
	profile, ok := llm.ByID("gpt-4o")
	if !ok {
		return 0, 0, fmt.Errorf("no gpt-4o profile")
	}
	rep := bench.Evaluate(suite, bench.Pipeline{
		TGRetriever:  retriever.NewRanger(store),
		ARARetriever: retriever.NewSieve(store),
		Profile:      profile,
		Parallelism:  clients,
	})
	return rep.TGAccuracyPct(), rep.ARAPct(), nil
}

// endToEndInstances is how many serving instances an end-to-end run
// sets up: each builds its own store and engine (or launches its own
// daemon), is warmed, and serves an equal share of the window.
// Retrieval speed differs from one store build to the next by about
// ±10%, and a shared machine's speed drifts over tens of seconds; with
// one instance per run either would become the run-to-run spread.
const endToEndInstances = 10

// instances is how many serving instances the run sets up; a traced run
// uses one.
func (s *runState) instances() int {
	if s.cfg.trace == 1 {
		return 1
	}
	return endToEndInstances
}

// instanceRun is one serving instance of an end-to-end run.
type instanceRun struct {
	setup float64 // seconds from store build (or launch) to warmed
	w     *window
	rssMB float64
}

// runInProcess serves the plan from engines in this process. Each
// instance builds a store, constructs the engine and warms it — its
// set-up — and then serves its share of the window. The peak resident
// set is restarted before each, so its rss_mb covers that instance.
func (s *runState) runInProcess(ctx context.Context) error {
	var runs []instanceRun
	for range s.instances() {
		// Return the previous instance's freed memory to the OS before
		// restarting the peak, so the peak is this instance's own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return fmt.Errorf("reset peak RSS: %w", err)
		}
		t := time.Now()
		store, err := engine.OpenStore("", s.cfg.accesses, storeSeed, 0)
		if err != nil {
			return fmt.Errorf("build store: %w", err)
		}
		build := time.Since(t)
		ecfg := engine.Config{Store: store, SemanticThreshold: s.plan.SemanticThreshold}
		var wrap *timedRetriever
		if s.cfg.trace == 1 {
			wrap = &timedRetriever{inner: retriever.NewRanger(store)}
			ecfg.CustomRetriever = wrap
		}
		eng, err := engine.New(ecfg)
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		s.absorb("warmup", warm(ctx, inproc{eng}, s.plan, s.chk), false)
		setup := time.Since(t).Seconds()
		if s.cfg.trace == 1 {
			err := s.traceInProcess(ctx, eng, wrap, build)
			eng.Close()
			return err
		}
		w := measure(ctx, inproc{eng}, s.plan, new(atomic.Int64), s.share(), s.chk, "", s.epoch)
		eng.Close()
		s.absorb("window", &w.tally, true)
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return err
		}
		runs = append(runs, instanceRun{setup: setup, w: w, rssMB: rss})
	}
	s.endToEnd(runs)
	return nil
}

// share is each instance's part of an end-to-end window.
func (s *runState) share() time.Duration {
	return time.Duration(s.cfg.seconds) * time.Second / time.Duration(s.instances())
}

// traceInProcess runs the untraced and the traced half-windows on one
// warmed engine and records the per-layer metrics.
func (s *runState) traceInProcess(ctx context.Context, eng *engine.Engine, wrap *timedRetriever, build time.Duration) error {
	s.put("db.build_s", build.Seconds(), "s")
	a := inproc{eng}
	var cursor atomic.Int64
	half := time.Duration(s.cfg.seconds) * time.Second / 2
	var m0, m1 runtime.MemStats
	st0 := eng.Stats()
	runtime.ReadMemStats(&m0)
	base := measure(ctx, a, s.plan, &cursor, half, s.chk, "", s.epoch)
	runtime.ReadMemStats(&m1)
	st1 := eng.Stats()
	s.absorb("untraced window", &base.tally, true)

	traced := measure(ctx, a, s.plan, &cursor, half, s.chk, spanEngine, s.epoch)
	s.absorb("traced window", &traced.tally, true)
	s.traceMetrics(base, traced)

	// Engine counters and allocations over the untraced window, on the
	// request shape the mix sends (every ask records session memory).
	answered := float64(base.answered)
	s.put("engine.exact_hit_frac", float64(st1.CacheExactHits-st0.CacheExactHits)/answered, "fraction")
	s.put("engine.semantic_hit_frac", float64(st1.CacheSemanticHits-st0.CacheSemanticHits)/answered, "fraction")
	s.put("engine.miss_frac", float64(st1.CacheMisses-st0.CacheMisses)/answered, "fraction")
	s.put("engine.bypass_frac", float64(st1.CacheBypasses-st0.CacheBypasses)/answered, "fraction")
	s.put("engine.allocs_per_ask", float64(m1.Mallocs-m0.Mallocs)/answered, "count")
	s.put("engine.bytes_per_ask", float64(m1.TotalAlloc-m0.TotalAlloc)/answered, "B")
	s.put("engine.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	s.put("engine.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	nomem, err := noMemoryHitAllocs(ctx, eng, s.plan.Items[0].Question)
	if err != nil {
		return err
	}
	s.put("engine.allocs_per_nomemory_hit", nomem, "count")

	// Retrieval layer: the wrapper's counters over the traced window,
	// and replays of the calls it kept.
	calls := float64(wrap.calls.Load())
	s.put("retriever.calls_per_ask", calls/float64(traced.answered), "count")
	s.put("retriever.queries_per_call", ratio(float64(wrap.queries.Load()), calls), "count")
	s.put("retriever.query_error_frac", ratio(float64(wrap.qerrors.Load()), float64(wrap.queries.Load())), "fraction")
	exec, parse := replayRetrieval(ctx, eng.Store(), wrap.replays)
	s.put("queryir.execute_us.p50", percentile(exec, 0.5), "us")
	s.put("nlu.parse_us.p50", percentile(parse, 0.5), "us")

	s.put("embed.embed_us.p50", percentile(replayEmbed(traced.semantic), 0.5), "us")
	add := replayMemory(eng)
	s.put("memory.add_us.p50", percentile(add, 0.5), "us")
	s.put("memory.add_us.p99", percentile(add, 0.99), "us")
	return nil
}

// runHTTP serves the plan from cachemindd child processes, one per
// instance: each is launched, waited on until /readyz answers 200 and
// warmed over HTTP — its set-up — then serves its share of the window;
// its VmHWM is that instance's rss_mb.
func (s *runState) runHTTP(ctx context.Context, refBuild time.Duration) error {
	a := newHTTPAsker(s.plan)
	defer a.close()
	var runs []instanceRun
	for range s.instances() {
		run, err := s.httpInstance(ctx, a, refBuild)
		if err != nil {
			return err
		}
		runs = append(runs, run)
	}
	if s.cfg.trace == 0 {
		s.endToEnd(runs)
	}
	return nil
}

// httpInstance launches, warms and measures one daemon and stops it.
func (s *runState) httpInstance(ctx context.Context, a *httpAsker, refBuild time.Duration) (run instanceRun, err error) {
	t := time.Now()
	d, err := startDaemon(ctx, s.cfg.daemon, daemonArgs(s.plan, s.cfg.accesses)...)
	if err != nil {
		return run, err
	}
	defer func() {
		a.close()
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stop cachemindd: %w", serr)
		}
	}()
	a.url = d.url + "/v1/ask"
	s.absorb("warmup", warm(ctx, a, s.plan, s.chk), false)
	run.setup = time.Since(t).Seconds()

	if s.cfg.trace == 1 {
		var cursor atomic.Int64
		half := time.Duration(s.cfg.seconds) * time.Second / 2
		base := measure(ctx, a, s.plan, &cursor, half, s.chk, "", s.epoch)
		s.absorb("untraced window", &base.tally, true)
		traced := measure(ctx, a, s.plan, &cursor, half, s.chk, spanServer, s.epoch)
		s.absorb("traced window", &traced.tally, true)
		s.traceMetrics(base, traced)

		// The store build inside the daemon is not visible from here;
		// db.build_s is the same build timed in this process.
		s.put("db.build_s", refBuild.Seconds(), "s")
		s.put("cachemindd.ready_s", d.ready.Seconds(), "s")
		answered := float64(traced.answered)
		s.put("cachemindd.server_ms.p50", percentile(durationsMS(traced.server), 0.5), "ms")
		s.put("cachemindd.response_bytes", float64(traced.respBytes)/answered, "B")
		s.put("engine.exact_hit_frac", float64(traced.tiers[string(engine.TierExact)])/answered, "fraction")
		s.put("engine.semantic_hit_frac", float64(traced.tiers[string(engine.TierSemantic)])/answered, "fraction")
		s.put("engine.miss_frac", float64(traced.tiers[string(engine.TierCold)])/answered, "fraction")
		return run, nil
	}
	run.w = measure(ctx, a, s.plan, new(atomic.Int64), s.share(), s.chk, "", s.epoch)
	s.absorb("window", &run.w.tally, true)
	run.rssMB, err = peakRSSMB(d.pid())
	return run, err
}

// endToEnd records the end-to-end metrics as medians over the
// instances, so a burst of interference from outside the program moves
// one instance's figures, not the result.
func (s *runState) endToEnd(runs []instanceRun) {
	var (
		setups, rss, qps, p50, p95 []float64
		answered, failed           int64
	)
	for _, r := range runs {
		lat := durationsMS(r.w.lat)
		setups = append(setups, r.setup)
		rss = append(rss, r.rssMB)
		qps = append(qps, r.w.qps())
		p50 = append(p50, percentile(lat, 0.5))
		p95 = append(p95, percentile(lat, 0.95))
		answered += r.w.answered
		failed += r.w.failed
		if len(lat) < 1000 {
			s.problems = append(s.problems, fmt.Sprintf("an instance answered only %d asks; want at least 1000", len(lat)))
		}
	}
	fmt.Fprintf(os.Stderr, "servebench: per instance: setup_s %.3f\nqps %.0f\np50_ms %.4f\np95_ms %.4f\nrss_mb %.1f\n", setups, qps, p50, p95, rss)
	s.put("setup_s", median(setups), "s")
	s.put("throughput_qps", median(qps), "1/s")
	s.put("ask_p50_ms", median(p50), "ms")
	s.put("ask_p95_ms", median(p95), "ms")
	s.put("answered_frac", ratio(float64(answered), float64(answered+failed)), "fraction")
	s.put("rss_mb", median(rss), "MB")
}

// traceMetrics derives the span metrics of a traced window, checks that
// the layer spans add back up to the ask spans (in process), and
// writes the spans out.
func (s *runState) traceMetrics(base, traced *window) {
	spans := traced.spans()
	self := selfTimes(spans)
	s.put("trace.overhead_frac", 1-traced.qps()/base.qps(), "fraction")
	// The whole ask's tail, unbounded here: on hot-sessions p99 sits at
	// the edge of the ~1% of asks that a session compaction or a GC
	// cycle delays, so it jumps with the machine's speed.
	s.put("ask.p99_ms", percentile(durationsMS(base.lat), 0.99), "ms")
	s.put("trace.asks", float64(len(self[spanAsk])), "count")
	unattributed, overlap := coverage(spans)
	s.put("trace.unattributed_frac", unattributed, "fraction")
	if s.cfg.workload == wlHotHTTP {
		// The ask span's own time is the wire: client, loopback and
		// the daemon's decode, admission, encode and net/http.
		wire := durationsUS(self[spanAsk])
		s.put("cachemindd.wire_us.p50", percentile(wire, 0.5), "us")
		s.put("cachemindd.wire_us.p99", percentile(wire, 0.99), "us")
	} else {
		if unattributed > maxSpanShare || overlap > maxSpanShare {
			s.problems = append(s.problems, fmt.Sprintf("layer spans do not add up to the ask spans: %.1f%% of ask time unattributed, %.1f%% overrun", 100*unattributed, 100*overlap))
		}
		eself := durationsUS(self[spanEngine])
		s.put("engine.self_us.p50", percentile(eself, 0.5), "us")
		s.put("engine.self_us.p99", percentile(eself, 0.99), "us")
		retr := durationsMS(self[spanRetrieve])
		s.put("retriever.retrieve_ms.p50", percentile(retr, 0.5), "ms")
		s.put("retriever.retrieve_ms.p99", percentile(retr, 0.99), "ms")
		s.put("generator.generate_us.p50", percentile(durationsUS(self[spanGenerate]), 0.5), "us")
	}
	if err := os.MkdirAll(s.cfg.out, 0o755); err == nil {
		path := filepath.Join(s.cfg.out, fmt.Sprintf("spans-%s.tsv", s.cfg.workload))
		if err := writeSpans(path, traced.bufs); err != nil {
			fmt.Fprintln(os.Stderr, "servebench: write spans:", err)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// noMemoryHitAllocs is the old gate's probe: allocations per exact-hit
// ask with Options.NoMemory, a request shape no traffic sends, reported
// beside engine.allocs_per_ask for comparison.
func noMemoryHitAllocs(ctx context.Context, eng *engine.Engine, question string) (float64, error) {
	req := engine.Request{SessionID: "servebench-probe", Question: question, Options: engine.Options{NoMemory: true, NoSemantic: true}}
	if _, err := eng.Ask(ctx, req); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	const n = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range n {
		resp, err := eng.Ask(ctx, req)
		if err != nil || resp.Tier != engine.TierExact {
			return 0, fmt.Errorf("probe ask was not an exact hit (tier %q, err %v)", resp.Tier, err)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// replayRetrieval times queryir.Execute on each kept call's executed
// queries and nlu.Parse on each kept call's question, both in µs.
func replayRetrieval(ctx context.Context, store *db.Store, calls []retriever.Context) (exec, parse []float64) {
	vocab := retriever.VocabFromStore(store)
	for _, rc := range calls {
		for _, ex := range rc.Executed {
			t := time.Now()
			_, _ = queryir.Execute(ctx, store, ex.Query)
			exec = append(exec, float64(time.Since(t))/float64(time.Microsecond))
		}
		t := time.Now()
		_, _ = nlu.Parse(rc.Question, vocab)
		parse = append(parse, float64(time.Since(t))/float64(time.Microsecond))
	}
	return exec, parse
}

// replayEmbed times embed.Embed over the window's exact-miss questions,
// in µs.
func replayEmbed(questions []string) []float64 {
	out := make([]float64, len(questions))
	for i, q := range questions {
		t := time.Now()
		_ = embed.Embed(q)
		out[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	return out
}

// replayMemory rebuilds each session's conversation memory from its
// recorded turns and times memory.Conversation.Add, in µs, at the
// depths the engine's sessions cycle through: from the retention bound
// up (a session is compacted back to that bound at twice it).
func replayMemory(eng *engine.Engine) []float64 {
	var out []float64
	for _, id := range eng.SessionIDs() {
		if !strings.HasPrefix(id, sessPrefix) {
			continue
		}
		turns, _ := eng.SessionTurns(id)
		from := 0
		if len(turns) > engine.DefaultMaxSessionTurns {
			from = engine.DefaultMaxSessionTurns
		}
		conv := memory.New(engine.DefaultMemoryTurns)
		for i, turn := range turns {
			t := time.Now()
			conv.Add(turn.Question, turn.Answer)
			if i >= from {
				out = append(out, float64(time.Since(t))/float64(time.Microsecond))
			}
		}
	}
	return out
}
