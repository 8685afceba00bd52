package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/bench"
	"cachemind/internal/db"
	"cachemind/internal/engine"
	"cachemind/internal/histogram"
)

// config is one load run, fully determined by its fields: the question
// stream is a pure function of (store, seed, repeat), so two runs with
// the same config replay the same load.
type config struct {
	url         string // empty: in-process engine; comma-separated URLs round-robin across a cluster
	concurrency int
	requests    int           // total questions (count mode)
	duration    time.Duration // > 0: run for this long instead (ring over the mix)
	batch       int           // questions per request (1: POST /v1/ask)
	repeat      float64
	seed        int64
	sessions    int
	timeout     time.Duration // http client timeout
	// reqTimeout caps each request's context (the -request-timeout
	// knob; 0 = none). Requests aborted by it count as canceled, not
	// as errors — this is how the perf gate exercises the engine's
	// cancellation path.
	reqTimeout time.Duration

	// Store / in-process engine knobs. In http mode the store is still
	// built locally — it seeds the question mix.
	dbPath      string
	accesses    int
	retriever   string
	model       string
	shards      int
	cacheSize   int
	cachePolicy string
	// semThreshold enables the in-process engine's semantic cache tier
	// (0: disabled, 1: exact-only degenerate). Like cachePolicy it is an
	// in-process knob — against a -url daemon the server owns it.
	semThreshold float64

	// paraphrase is the probability that a repeat draw in the mix is a
	// reworded variant of its original (bench.Paraphrase) instead of the
	// exact bytes — the workload shape that exercises the semantic tier.
	// Applies in both modes: the mix is built client-side.
	paraphrase float64

	// policySweep replays the same deterministic mix across every
	// registered cache policy (in-process only) and emits one
	// comparative policy_sweep row per policy.
	policySweep bool

	// prefetch enables the in-process engine's predictive session
	// prefetcher (engine.Config.Prefetch). In-process only — against a
	// -url daemon the server owns it (-prefetch on cachemindd).
	prefetch bool
	// sessionReplay switches the plan from the flat question mix to
	// bench.SampleSessions: cfg.sessions sessions of sessionTurns
	// questions each, following one of a few fixed scripts with
	// probability follow per turn, interleaved turn-major so every
	// session's next ask arrives many asks after its previous one — the
	// window a background prefetcher fills. repeat/paraphrase do not
	// apply in this mode (the scripts are the repetition structure).
	sessionReplay bool
	sessionTurns  int
	follow        float64

	// minCoveredRate is the prefetch-effectiveness strict gate: fail
	// when covered_miss_rate falls below this floor (0: off; needs
	// -prefetch and the in-process engine).
	minCoveredRate float64

	// warmup is how many questions each pass issues before the measured
	// run begins. Warmup outcomes are discarded: they enter neither the
	// latency histogram nor the cache tallies (in-process passes subtract
	// the post-warmup Engine.Stats() baseline), so the measured numbers
	// describe a warmed cache instead of averaging cold-start outliers
	// into every percentile.
	warmup int

	// Perf-gate thresholds, enforced under -strict (see main.go). Each
	// gate is live when positive and off at 0: minQPS floors throughput,
	// maxP99MS ceilings tail latency, and maxAllocs ceilings the
	// measured allocs_per_cached_ask (in-process only — the measurement
	// needs the engine; use a fractional budget like 0.5 to assert an
	// allocation-free path).
	minQPS    float64
	maxP99MS  float64
	maxAllocs float64

	// measureAllocs probes allocs_per_cached_ask after the measured run
	// (in-process only). main.go always sets it so every CLI run reports
	// the number; tests opt in because the probe's asks advance the
	// engine's hit counters past the report's totals.
	measureAllocs bool

	store      *db.Store            // test hook: pre-built store overrides dbPath/accesses
	engineHook func(*engine.Engine) // test hook: observe the in-process engine
}

// thresholds returns the report's echo of the configured gate levels,
// nil when none is set.
func (c *config) thresholds() *Thresholds {
	if c.minQPS <= 0 && c.maxP99MS <= 0 && c.maxAllocs <= 0 && c.minCoveredRate <= 0 {
		return nil
	}
	return &Thresholds{MinQPS: c.minQPS, MaxP99MS: c.maxP99MS, MaxAllocs: c.maxAllocs, MinCoveredRate: c.minCoveredRate}
}

// Report is the BENCH_loadgen.json document (schema
// cachemind-loadgen/v6). Every key is always present — except target,
// error_sample, policy_sweep, allocs_per_cached_ask, thresholds and
// prefetch, which appear only in http mode, after errors, under
// -policy-sweep, on in-process measured runs, when a gate is
// configured, and under -prefetch, respectively — so trend tooling can
// rely on the shape; latencies are
// milliseconds, throughput is questions per second as observed by the
// closed loop. v2 added the canceled count (questions aborted by
// -request-timeout or context cancellation, excluded from errors). v3
// added cache_policy, the answer_digest, engine-sourced cache
// accounting (cache.source, with hit_rate = hits/(hits+misses) over
// actual cache lookups), and the -policy-sweep comparative table
// (policy_sweep) — the serving-side analogue of the paper's
// policy-comparison figures. v4 adds the semantic tier:
// semantic_threshold and paraphrase_ratio echoes, and the cache block's
// per-tier split (exact_hits/semantic_hits with exact_hit_rate/
// semantic_hit_rate; hits stays the sum, hit_rate the total, so v3
// trend lines read on unchanged). v5 adds the profiling/perf-gate
// surface: the warmup echo (warmup questions excluded from every
// measured number), allocs_per_cached_ask (heap allocations per
// exact-hit cached ask, measured post-run on the in-process engine),
// and the thresholds echo of the enforced -min-qps/-max-p99-ms/
// -max-allocs gate levels. v6 adds predictive prefetching and session
// replay: the session_replay/session_turns/follow_ratio plan echoes,
// the prefetch counter block (predictions/issued/covered/wasted/
// dropped, present under -prefetch), and the cache block's
// covered_miss_rate (covered/(covered+misses) — the fraction of
// would-be misses a prefetched entry absorbed) and
// wasted_prefetch_rate (wasted/issued) alongside hit_rate. v7 adds
// cluster targeting: -url accepts a comma-separated target list
// (round-robin with transport-error failover), and http-mode reports
// carry the targets block — one {url, requests, errors, retried} row
// per target, so a cluster run shows which node absorbed the load and
// which one died.
type Report struct {
	Schema      string  `json:"schema"`
	Mode        string  `json:"mode"` // "inprocess" or "http"
	Target      string  `json:"target,omitempty"`
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"batch"`
	Shards      int     `json:"shards"` // 0 in http mode (server-side setting)
	Seed        int64   `json:"seed"`
	RepeatRatio float64 `json:"repeat_ratio"`
	Sessions    int     `json:"sessions"`
	// CachePolicy is the in-process engine's eviction policy ("" in
	// http mode — the server owns that setting).
	CachePolicy string `json:"cache_policy"`
	// SemanticThreshold is the in-process engine's semantic-tier
	// threshold (0 in http mode — the server owns that setting, and
	// also when the tier is disabled or degenerate exact-only).
	SemanticThreshold float64 `json:"semantic_threshold"`
	// ParaphraseRatio echoes -paraphrase: the probability that a repeat
	// draw was reworded (bench.Paraphrase) instead of byte-identical.
	ParaphraseRatio float64 `json:"paraphrase_ratio"`
	// SessionReplay reports whether the plan was bench.SampleSessions
	// follow-up sessions (-session-replay) instead of the flat mix;
	// SessionTurns and FollowRatio echo that mode's knobs (0 otherwise).
	SessionReplay bool    `json:"session_replay"`
	SessionTurns  int     `json:"session_turns,omitempty"`
	FollowRatio   float64 `json:"follow_ratio,omitempty"`
	// Warmup echoes -warmup: questions issued (and discarded) before
	// measurement began. Requests/Questions and every latency/cache
	// number below exclude them.
	Warmup          int        `json:"warmup"`
	Requests        int        `json:"requests"`
	Questions       int        `json:"questions"`
	Errors          int        `json:"errors"`
	Canceled        int        `json:"canceled"`
	ErrorSample     string     `json:"error_sample,omitempty"`
	DurationSeconds float64    `json:"duration_seconds"`
	ThroughputQPS   float64    `json:"throughput_qps"`
	Latency         LatencyMS  `json:"latency_ms"`
	Cache           CacheStats `json:"cache"`
	// AnswerDigest is an FNV-64 digest over the answers in mix order —
	// two runs of the same mix must produce equal digests no matter the
	// cache policy (answers are pure functions of the question).
	AnswerDigest string `json:"answer_digest"`
	// AllocsPerCachedAsk is the measured heap-allocation count per
	// exact-hit cached ask that records its turn in session memory, as
	// every ask of the mix does, probed after the measured run on the
	// in-process engine; absent in http mode or when caching is
	// disabled. The -max-allocs strict gate and engine.TestCachedAskAllocs
	// enforce the same budget.
	AllocsPerCachedAsk *float64 `json:"allocs_per_cached_ask,omitempty"`
	// Thresholds echoes the configured perf-gate levels (absent when no
	// gate is set); -strict enforces them.
	Thresholds *Thresholds `json:"thresholds,omitempty"`
	// Prefetch is the engine's prefetcher counter block, present under
	// -prefetch (in-process): the raw counters behind the cache block's
	// covered_miss_rate and wasted_prefetch_rate.
	Prefetch *PrefetchReport `json:"prefetch,omitempty"`
	// PolicySweep is the -policy-sweep comparative table: one row per
	// registered eviction policy over the identical request mix.
	PolicySweep []PolicyRow `json:"policy_sweep,omitempty"`
	// Targets is the v7 per-target block (http mode): one row per -url
	// target with its request, transport-error, and failover-retry
	// tallies. Requests across targets sum to more than the loop's
	// request count when failover re-sent work to a sibling target.
	Targets []TargetReport `json:"targets,omitempty"`
}

// TargetReport is one -url target's tallies in mix order of the -url
// list.
type TargetReport struct {
	URL      string `json:"url"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Retried  int64  `json:"retried"`
}

// Thresholds is the report's echo of the enforced perf-gate levels; a
// zero field means that gate is off.
type Thresholds struct {
	MinQPS         float64 `json:"min_qps"`
	MaxP99MS       float64 `json:"max_p99_ms"`
	MaxAllocs      float64 `json:"max_allocs"`
	MinCoveredRate float64 `json:"min_covered_rate,omitempty"`
}

// PrefetchReport mirrors engine.PrefetchStats over the measured window
// (warmup-phase counts subtracted, like every cache tally).
type PrefetchReport struct {
	Predictions uint64 `json:"predictions"`
	Issued      uint64 `json:"issued"`
	Covered     uint64 `json:"covered"`
	Wasted      uint64 `json:"wasted"`
	Dropped     uint64 `json:"dropped"`
}

// PolicyRow is one -policy-sweep result: the same deterministic mix
// replayed under one eviction policy.
type PolicyRow struct {
	Policy        string     `json:"policy"`
	Questions     int        `json:"questions"`
	Errors        int        `json:"errors"`
	Canceled      int        `json:"canceled"`
	ThroughputQPS float64    `json:"throughput_qps"`
	Latency       LatencyMS  `json:"latency_ms"`
	Cache         CacheStats `json:"cache"`
	AnswerDigest  string     `json:"answer_digest"`
}

// LatencyMS summarizes the per-request latency histogram in
// milliseconds (a request is one ask, or one whole batch).
type LatencyMS struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// CacheStats is the run's cache outcome. In-process runs read the
// authoritative Engine.Stats() counters (source "engine"), so the
// totals are actual cache lookups; http runs fall back to the
// client-observed cache_tier fields (source "client"). Either way
// hit_rate is hits/(hits+misses) — the rate over lookups, not over
// answered questions, whose denominator diverges as soon as batches
// coalesce or bypass-cache options enter the mix. v4 splits hits by
// serving tier: hits == exact_hits + semantic_hits always, and the
// per-tier rates share the hits+misses denominator so they sum to
// hit_rate.
// v6 adds the prefetch-effectiveness pair: covered_miss_rate is
// covered/(covered+misses) — of the demand asks that would have missed,
// the fraction a prefetched entry served instead — and
// wasted_prefetch_rate is wasted/issued, the fraction of speculative
// fills that never served anyone. Both are 0 without -prefetch.
type CacheStats struct {
	Source             string  `json:"source"`
	Hits               int64   `json:"hits"`
	ExactHits          int64   `json:"exact_hits"`
	SemanticHits       int64   `json:"semantic_hits"`
	Misses             int64   `json:"misses"`
	HitRate            float64 `json:"hit_rate"`
	ExactHitRate       float64 `json:"exact_hit_rate"`
	SemanticHitRate    float64 `json:"semantic_hit_rate"`
	CoveredMissRate    float64 `json:"covered_miss_rate"`
	WastedPrefetchRate float64 `json:"wasted_prefetch_rate"`
}

// fillRates computes the total and per-tier hit rates over actual
// lookups (hits+misses) from the already-set counters.
func (c *CacheStats) fillRates() {
	c.Hits = c.ExactHits + c.SemanticHits
	c.HitRate = hitRate(c.Hits, c.Misses)
	lookups := c.Hits + c.Misses
	if lookups > 0 {
		c.ExactHitRate = float64(c.ExactHits) / float64(lookups)
		c.SemanticHitRate = float64(c.SemanticHits) / float64(lookups)
	}
}

// hitRate is the v3 accounting fix: hits over actual lookups.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// planItem is one scheduled ask of the session-replay plan.
type planItem struct {
	session  string
	question string
}

// askPlan is the deterministic question schedule one pass replays —
// either the flat mix (default; question idx asked by session
// "lg-"+idx%sessions, byte-identical to the pre-v6 plan for the same
// flags) or, under -session-replay, an explicit (session, question)
// schedule interleaving bench.SampleSessions turn-major, so each
// session's consecutive turns are separated by every other session's
// ask — the idle window a background prefetcher fills.
type askPlan struct {
	mix      []string
	sessions int
	items    []planItem // non-nil: replay mode
}

// size is the number of distinct plan slots (the digest length);
// indexing wraps past it in duration mode.
func (p *askPlan) size() int {
	if p.items != nil {
		return len(p.items)
	}
	return len(p.mix)
}

// at returns the idx'th scheduled ask, wrapping over the plan.
func (p *askPlan) at(idx int64) (session, question string) {
	if p.items != nil {
		it := p.items[idx%int64(len(p.items))]
		return it.session, it.question
	}
	return "lg-" + strconv.FormatInt(idx%int64(p.sessions), 10), p.mix[idx%int64(len(p.mix))]
}

// outcome is one asked question as the client observed it: answered
// (with the serving tier), canceled by the request context, or failed.
type outcome struct {
	tier     string // engine.CacheTier as a string
	text     string // the answer, for the determinism digest
	canceled bool
	err      error
}

// driver answers one request's worth of items under ctx.
type driver interface {
	do(ctx context.Context, items []engine.Request) []outcome
}

// inprocDriver drives an Engine directly — no HTTP, so the numbers
// isolate engine contention from network and JSON cost.
type inprocDriver struct {
	eng *engine.Engine
}

func (d *inprocDriver) do(ctx context.Context, items []engine.Request) []outcome {
	// Items run serially within the batch (workers 1): the -c loop
	// workers are the only source of engine concurrency, so the
	// report's "concurrency" field states the actual parallelism. Use
	// -url mode to measure the daemon's server-side batch fan-out.
	results := d.eng.AskBatch(ctx, items, 1)
	out := make([]outcome, len(results))
	for i, r := range results {
		switch {
		case r.Err == nil:
			out[i] = outcome{tier: string(r.Response.Tier), text: r.Response.Text}
		case engine.IsCancellation(engine.ErrorCode(r.Err)):
			out[i] = outcome{canceled: true, err: r.Err}
		default:
			out[i] = outcome{err: r.Err}
		}
	}
	return out
}

// targetState is one -url target and its per-target tallies: the
// report's targets block.
type targetState struct {
	url      string
	requests atomic.Int64 // requests sent to this target
	errors   atomic.Int64 // transport failures this target produced
	retried  atomic.Int64 // of those, requests retried on another target
}

// httpDriver drives one or more cachemindd nodes: POST /v1/ask per
// item, or one POST /v1/ask/batch per request when batching. Multiple
// -url targets are load-balanced round-robin; a target that fails at
// the transport level (connection refused, reset — a dead or dying
// node) is retried on the next target, so a cluster run survives a
// node kill. HTTP error statuses never fail over: they are a live
// server's decision, relayed to the loop as-is.
type httpDriver struct {
	targets []*targetState
	next    atomic.Uint64
	client  *http.Client
}

// wireErr mirrors the daemon's v1 error envelope object.
type wireErr struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// wireAnswer is the subset of the daemon's reply the loop needs.
type wireAnswer struct {
	Answer    string   `json:"answer"`
	CacheTier string   `json:"cache_tier"`
	Error     *wireErr `json:"error"`
}

func (d *httpDriver) do(ctx context.Context, items []engine.Request) []outcome {
	out := make([]outcome, len(items))
	if len(items) == 1 {
		var ans wireAnswer
		err := d.post(ctx, "/v1/ask", wireItem(items[0]), &ans)
		out[0] = wireOutcome(ans, err)
		return out
	}
	body := make([]map[string]string, len(items))
	for i, it := range items {
		body[i] = wireItem(it)
	}
	var answers []wireAnswer
	if err := d.post(ctx, "/v1/ask/batch", body, &answers); err != nil {
		for i := range out {
			out[i] = requestOutcome(err)
		}
		return out
	}
	if len(answers) != len(items) {
		err := fmt.Errorf("batch returned %d answers for %d items", len(answers), len(items))
		for i := range out {
			out[i] = outcome{err: err}
		}
		return out
	}
	for i, ans := range answers {
		out[i] = wireOutcome(ans, nil)
	}
	return out
}

func wireItem(it engine.Request) map[string]string {
	return map[string]string{"session": it.SessionID, "question": it.Question}
}

// wireOutcome classifies one wire answer: a cancellation code from the
// server (or a client-side context error) counts as canceled, any
// other failure as an error.
func wireOutcome(ans wireAnswer, err error) outcome {
	if err != nil {
		return requestOutcome(err)
	}
	if ans.Error != nil {
		werr := fmt.Errorf("server: %s: %s", ans.Error.Code, ans.Error.Message)
		if engine.IsCancellation(engine.Code(ans.Error.Code)) {
			return outcome{canceled: true, err: werr}
		}
		return outcome{err: werr}
	}
	return outcome{tier: ans.CacheTier, text: ans.Answer}
}

// requestOutcome classifies a whole-request failure, treating a
// context expiry/cancellation on the client side as canceled.
func requestOutcome(err error) outcome {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return outcome{canceled: true, err: err}
	}
	var env *envelopeError
	if errors.As(err, &env) && engine.IsCancellation(engine.Code(env.code)) {
		return outcome{canceled: true, err: err}
	}
	return outcome{err: err}
}

// envelopeError is a non-200 daemon reply with its parsed error code.
type envelopeError struct {
	path   string
	status int
	code   string
	body   string
}

func (e *envelopeError) Error() string {
	return fmt.Sprintf("%s: status %d: %.200s", e.path, e.status, e.body)
}

// post sends body to path, starting at the round-robin target for this
// request and failing over to each remaining target on a transport
// error. A client-side context expiry is the caller's deadline, not a
// target failure — it aborts without failover.
func (d *httpDriver) post(ctx context.Context, path string, body, into any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	start := d.next.Add(1) - 1
	var lastErr error
	for attempt := 0; attempt < len(d.targets); attempt++ {
		tgt := d.targets[(start+uint64(attempt))%uint64(len(d.targets))]
		tgt.requests.Add(1)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, tgt.url+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := d.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			tgt.errors.Add(1)
			lastErr = err
			if attempt+1 < len(d.targets) {
				tgt.retried.Add(1)
			}
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			tgt.errors.Add(1)
			lastErr = err
			if attempt+1 < len(d.targets) {
				tgt.retried.Add(1)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var env struct {
				Error wireErr `json:"error"`
			}
			_ = json.Unmarshal(data, &env)
			return &envelopeError{path: path, status: resp.StatusCode, code: env.Error.Code, body: string(data)}
		}
		return json.Unmarshal(data, into)
	}
	return lastErr
}

// run builds the store and the deterministic question mix, then
// executes a single closed-loop pass — or, with -policy-sweep, one
// pass per registered cache policy over the identical mix.
func run(cfg config) (*Report, error) {
	if cfg.concurrency < 1 {
		cfg.concurrency = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.sessions < 1 {
		cfg.sessions = 1
	}
	if cfg.requests < 1 && cfg.duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a request count (-n) or a duration (-duration)")
	}
	if cfg.timeout <= 0 {
		cfg.timeout = 30 * time.Second
	}
	if cfg.cachePolicy == "" {
		cfg.cachePolicy = "lru"
	}
	// The eviction policy is an in-process engine knob: against a live
	// daemon the server owns it (-cache-policy on cachemindd), so a
	// non-default request here would silently measure the wrong thing.
	if cfg.url != "" && cfg.cachePolicy != "lru" {
		return nil, fmt.Errorf("loadgen: -cache-policy is an in-process knob; the -url daemon owns its policy (set -cache-policy on cachemindd instead)")
	}
	// Same ownership rule for the semantic tier.
	if cfg.url != "" && cfg.semThreshold != 0 {
		return nil, fmt.Errorf("loadgen: -semantic-threshold is an in-process knob; the -url daemon owns its tier (set -semantic-threshold on cachemindd instead)")
	}
	if cfg.semThreshold < 0 || cfg.semThreshold > 1 {
		return nil, fmt.Errorf("loadgen: -semantic-threshold %v outside [0, 1]", cfg.semThreshold)
	}
	if cfg.paraphrase < 0 || cfg.paraphrase > 1 {
		return nil, fmt.Errorf("loadgen: -paraphrase %v outside [0, 1]", cfg.paraphrase)
	}
	if cfg.warmup < 0 {
		return nil, fmt.Errorf("loadgen: -warmup %d must be non-negative", cfg.warmup)
	}
	// The alloc measurement probes the in-process engine's cached ask
	// directly; a remote daemon's allocations are not observable here.
	if cfg.url != "" && cfg.maxAllocs > 0 {
		return nil, fmt.Errorf("loadgen: -max-allocs needs the in-process engine (drop -url)")
	}
	// Prefetching is an engine knob: against a live daemon the server
	// owns it (-prefetch on cachemindd), and the covered-rate gate reads
	// Engine.Stats(), which only the in-process engine exposes.
	if cfg.url != "" && cfg.prefetch {
		return nil, fmt.Errorf("loadgen: -prefetch is an in-process knob; the -url daemon owns its prefetcher (set -prefetch on cachemindd instead)")
	}
	if cfg.minCoveredRate > 0 && (!cfg.prefetch || cfg.url != "") {
		return nil, fmt.Errorf("loadgen: -min-covered-rate needs -prefetch on the in-process engine")
	}
	if cfg.follow < 0 || cfg.follow > 1 {
		return nil, fmt.Errorf("loadgen: -follow %v outside [0, 1]", cfg.follow)
	}
	if cfg.sessionReplay && cfg.sessionTurns < 1 {
		return nil, fmt.Errorf("loadgen: -session-replay needs -session-turns >= 1, got %d", cfg.sessionTurns)
	}

	store := cfg.store
	if store == nil {
		var err error
		store, err = engine.OpenStore(cfg.dbPath, cfg.accesses, cfg.seed, 0)
		if err != nil {
			return nil, err
		}
	}
	suite, err := bench.Generate(store, cfg.seed)
	if err != nil {
		return nil, err
	}

	// The question plan: in count mode exactly cfg.requests draws; in
	// duration mode a ring large enough that wrap-around reuse is rare
	// within one pass (reuse past the ring is just more repeats).
	// -session-replay swaps the flat mix for interleaved follow-up
	// sessions; a plan shorter than the ask count replays whole.
	plan := &askPlan{sessions: cfg.sessions}
	if cfg.sessionReplay {
		replay := bench.SampleSessions(suite, cfg.sessions, cfg.sessionTurns, cfg.seed, cfg.follow)
		items := make([]planItem, 0, len(replay)*cfg.sessionTurns)
		for t := 0; t < cfg.sessionTurns; t++ {
			for _, s := range replay {
				items = append(items, planItem{session: s.ID, question: s.Questions[t]})
			}
		}
		plan.items = items
	} else {
		planLen := cfg.requests
		if cfg.duration > 0 && planLen < 8192 {
			planLen = 8192
		}
		plan.mix = bench.SampleMixParaphrase(suite, planLen, cfg.seed, cfg.repeat, cfg.paraphrase)
	}

	if cfg.policySweep {
		if cfg.url != "" {
			return nil, fmt.Errorf("loadgen: -policy-sweep drives the in-process engine (drop -url)")
		}
		if cfg.duration > 0 {
			return nil, fmt.Errorf("loadgen: -policy-sweep needs the fixed-count plan (-n); -duration makes per-policy answer digests incomparable")
		}
		// A live semantic tier serves a paraphrase the *neighbor's*
		// stored answer, and which neighbor is resident is exactly what
		// eviction policies differ on — so digests across policies would
		// diverge without any byte-level bug. The sweep's digest
		// hard-fail is the point of the sweep; keep it exact-only.
		// (-paraphrase alone is fine: without the tier a paraphrase is
		// just a distinct question, identical for every policy.)
		if cfg.semThreshold > 0 && cfg.semThreshold < 1 {
			return nil, fmt.Errorf("loadgen: -policy-sweep is exact-only (semantic serves depend on residency, which is what policies change — cross-policy answer digests would diverge); drop -semantic-threshold")
		}
		// Prefetch timing decides residency, so per-policy hit totals
		// would become scheduling-dependent — the sweep's comparison is
		// only meaningful reactively.
		if cfg.prefetch {
			return nil, fmt.Errorf("loadgen: -policy-sweep compares reactive residency; drop -prefetch (its fills are timing-dependent, making per-policy hit totals incomparable)")
		}
		return runSweep(cfg, store, plan)
	}
	return runPass(cfg, store, plan)
}

// runSweep replays the identical mix once per registered cache policy
// and assembles the comparative table. The lru pass doubles as the
// report's top-level numbers; answer digests across policies must
// agree (eviction decides residency, never bytes) — a mismatch is a
// correctness failure, not a data point.
func runSweep(cfg config, store *db.Store, plan *askPlan) (*Report, error) {
	var base *Report
	var refDigest, refPolicy string
	policies := engine.CachePolicies()
	rows := make([]PolicyRow, 0, len(policies))
	for _, p := range policies {
		pcfg := cfg
		pcfg.cachePolicy = p
		rep, err := runPass(pcfg, store, plan)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p, err)
		}
		if p == "lru" {
			base = rep
		}
		rows = append(rows, PolicyRow{
			Policy:        p,
			Questions:     rep.Questions,
			Errors:        rep.Errors,
			Canceled:      rep.Canceled,
			ThroughputQPS: rep.ThroughputQPS,
			Latency:       rep.Latency,
			Cache:         rep.Cache,
			AnswerDigest:  rep.AnswerDigest,
		})
		// Canceled questions leave holes in the digest, so only clean
		// passes take part in the byte-identity check.
		if rep.Errors == 0 && rep.Canceled == 0 {
			if refDigest == "" {
				refDigest, refPolicy = rep.AnswerDigest, p
			} else if rep.AnswerDigest != refDigest {
				return nil, fmt.Errorf("policy %s answers diverge from %s (digest %s vs %s) — eviction policies must never change bytes",
					p, refPolicy, rep.AnswerDigest, refDigest)
			}
		}
	}
	if base == nil {
		base = &Report{}
	}
	base.PolicySweep = rows
	return base, nil
}

// runPass executes one closed-loop pass and assembles its report.
func runPass(cfg config, store *db.Store, plan *askPlan) (*Report, error) {
	mode := "inprocess"
	shards := 0
	reportPolicy := ""
	reportThreshold := 0.0
	var eng *engine.Engine
	var drv driver
	var hdrv *httpDriver
	if cfg.url != "" {
		hdrv = &httpDriver{client: &http.Client{Timeout: cfg.timeout}}
		for _, u := range strings.Split(cfg.url, ",") {
			if u = strings.TrimSpace(u); u != "" {
				hdrv.targets = append(hdrv.targets, &targetState{url: u})
			}
		}
		if len(hdrv.targets) == 0 {
			return nil, fmt.Errorf("loadgen: -url %q has no usable targets", cfg.url)
		}
		mode = "http"
		drv = hdrv
	} else {
		var err error
		eng, err = engine.New(engine.Config{
			Store:             store,
			Retriever:         cfg.retriever,
			Model:             cfg.model,
			Shards:            cfg.shards,
			CacheSize:         cfg.cacheSize,
			CachePolicy:       cfg.cachePolicy,
			SemanticThreshold: cfg.semThreshold,
			// The benchmark runs the prefetcher unthrottled: loadgen's
			// closed loop drives the engine orders of magnitude harder
			// than the production-shaped defaults budget for, and a
			// rate-starved prefetcher would measure the token bucket, not
			// the predictor.
			Prefetch: engine.PrefetchConfig{Enabled: cfg.prefetch, Workers: 4, MaxFillsPerSec: -1},
		})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		shards = eng.Shards()
		reportPolicy = eng.CachePolicyName()
		reportThreshold = eng.SemanticThreshold()
		drv = &inprocDriver{eng: eng}
		if cfg.engineHook != nil {
			cfg.engineHook(eng)
		}
	}

	// Warmup: issue -warmup questions from the head of the plan through
	// the same driver and discard every outcome — they enter neither the
	// latency histogram nor the report's tallies, so the measured phase
	// starts against a warmed cache instead of folding one-time
	// cold-start latency into every percentile and the mean.
	if cfg.warmup > 0 {
		var widx atomic.Int64
		var wwg sync.WaitGroup
		for w := 0; w < cfg.concurrency; w++ {
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				for {
					i := widx.Add(1) - 1
					if i >= int64(cfg.warmup) {
						return
					}
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if cfg.reqTimeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, cfg.reqTimeout)
					}
					sid, q := plan.at(i)
					drv.do(ctx, []engine.Request{{SessionID: sid, Question: q}})
					cancel()
				}
			}()
		}
		wwg.Wait()
	}
	// Post-warmup baseline: the in-process cache accounting below reads
	// cumulative Engine.Stats(), so subtracting this snapshot keeps
	// warmup lookups out of the measured tallies. Quiesce first so
	// warmup-triggered speculative fills settle on the warmup side of the
	// baseline instead of leaking into the measured window.
	var warmBase engine.Stats
	if eng != nil {
		if cfg.prefetch {
			eng.PrefetchQuiesce(10 * time.Second)
		}
		warmBase = eng.Stats()
	}
	// Same exclusion for the per-target tallies: the targets block
	// describes the measured window, like every other counter.
	if hdrv != nil {
		for _, tgt := range hdrv.targets {
			tgt.requests.Store(0)
			tgt.errors.Store(0)
			tgt.retried.Store(0)
		}
	}

	// Collect the setup and warmup garbage before the clock starts. A
	// runtime trace of a short warmed window showed its only stalls were
	// a GC cycle triggered by that leftover garbage, not by the window's
	// own allocations; one such cycle lifts the mean of a millisecond
	// window above its p95. Starting on a freshly collected heap charges
	// the window only for the collections its own asks cause.
	runtime.GC()
	hist := histogram.New()
	var (
		nextIdx      atomic.Int64
		questions    atomic.Int64
		reqs         atomic.Int64
		exactHits    atomic.Int64
		semanticHits atomic.Int64
		errs         atomic.Int64
		canceled     atomic.Int64
		errMu        sync.Mutex
		errSample    string
	)
	// Per-plan-slot answer digests: answers are pure functions of the
	// question, so the slot value is write-once (concurrent writers
	// store identical hashes) and the fold below is order-independent
	// of scheduling.
	digests := make([]atomic.Uint64, plan.size())
	start := time.Now()
	var deadline time.Time
	if cfg.duration > 0 {
		deadline = start.Add(cfg.duration)
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				base := nextIdx.Add(int64(cfg.batch)) - int64(cfg.batch)
				n := cfg.batch
				if deadline.IsZero() {
					if base >= int64(cfg.requests) {
						return
					}
					if rest := int64(cfg.requests) - base; int64(n) > rest {
						n = int(rest)
					}
				}
				items := make([]engine.Request, n)
				for i := range items {
					sid, q := plan.at(base + int64(i))
					items[i] = engine.Request{SessionID: sid, Question: q}
				}
				// Each closed-loop request runs under its own context,
				// capped by -request-timeout when set — the same
				// deadline discipline a real client applies.
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if cfg.reqTimeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.reqTimeout)
				}
				t0 := time.Now()
				outs := drv.do(ctx, items)
				hist.Observe(time.Since(t0))
				cancel()
				reqs.Add(1)
				for i, o := range outs {
					questions.Add(1)
					switch {
					case o.canceled:
						canceled.Add(1)
					case o.err != nil:
						errs.Add(1)
						errMu.Lock()
						if errSample == "" {
							errSample = o.err.Error()
						}
						errMu.Unlock()
					default:
						switch o.tier {
						case string(engine.TierExact):
							exactHits.Add(1)
						case string(engine.TierSemantic):
							semanticHits.Add(1)
						}
						digests[(base+int64(i))%int64(plan.size())].Store(fnv64(o.text))
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := hist.Snapshot()
	asked := questions.Load()
	errors := errs.Load()
	answered := asked - errors - canceled.Load()
	throughput := 0.0
	if elapsed > 0 {
		throughput = float64(asked) / elapsed.Seconds()
	}

	// Cache accounting: in-process runs read the authoritative engine
	// counters — hits+misses is the number of answered cache-routed
	// asks, so the hit rate is over actual lookups rather than over
	// every answered question (which diverges once batch coalescing or
	// bypass options enter the mix). Http runs only see the per-answer
	// cache_tier fields, so misses fall back to answered-but-uncached.
	var cache CacheStats
	var prefetchRep *PrefetchReport
	if eng != nil {
		// Let in-flight speculative fills finish before the final
		// snapshot, so issued/covered/wasted describe the whole measured
		// window rather than whatever had drained by the time the loop
		// exited.
		if cfg.prefetch {
			eng.PrefetchQuiesce(10 * time.Second)
		}
		st := eng.Stats()
		cache = CacheStats{
			Source:       "engine",
			ExactHits:    int64(st.CacheExactHits - warmBase.CacheExactHits),
			SemanticHits: int64(st.CacheSemanticHits - warmBase.CacheSemanticHits),
			Misses:       int64(st.CacheMisses - warmBase.CacheMisses),
		}
		if cfg.prefetch {
			prefetchRep = &PrefetchReport{
				Predictions: st.Prefetch.Predictions - warmBase.Prefetch.Predictions,
				Issued:      st.Prefetch.Issued - warmBase.Prefetch.Issued,
				Covered:     st.Prefetch.Covered - warmBase.Prefetch.Covered,
				Wasted:      st.Prefetch.Wasted - warmBase.Prefetch.Wasted,
				Dropped:     st.Prefetch.Dropped - warmBase.Prefetch.Dropped,
			}
			// covered_miss_rate: of the demand asks that would have
			// missed (covered + actual misses), the fraction a prefetched
			// entry absorbed. wasted_prefetch_rate: speculative fills that
			// never served anyone, over fills issued.
			if denom := prefetchRep.Covered + uint64(cache.Misses); denom > 0 {
				cache.CoveredMissRate = float64(prefetchRep.Covered) / float64(denom)
			}
			if prefetchRep.Issued > 0 {
				cache.WastedPrefetchRate = float64(prefetchRep.Wasted) / float64(prefetchRep.Issued)
			}
		}
	} else {
		cache = CacheStats{
			Source:       "client",
			ExactHits:    exactHits.Load(),
			SemanticHits: semanticHits.Load(),
			Misses:       answered - exactHits.Load() - semanticHits.Load(),
		}
	}
	cache.fillRates()

	// Alloc probe last: its asks advance the engine's counters, so it
	// must run after the cache snapshot above.
	var allocsPerAsk *float64
	if eng != nil && cfg.cacheSize >= 0 && (cfg.measureAllocs || cfg.maxAllocs > 0) {
		_, probeQ := plan.at(0)
		if a, ok := measureCachedAskAllocs(eng, probeQ); ok {
			allocsPerAsk = &a
		}
	}

	rep := &Report{
		Schema:            "cachemind-loadgen/v7",
		Mode:              mode,
		Target:            cfg.url,
		Concurrency:       cfg.concurrency,
		Batch:             cfg.batch,
		Shards:            shards,
		Seed:              cfg.seed,
		RepeatRatio:       cfg.repeat,
		Sessions:          cfg.sessions,
		CachePolicy:       reportPolicy,
		SemanticThreshold: reportThreshold,
		ParaphraseRatio:   cfg.paraphrase,
		SessionReplay:     cfg.sessionReplay,
		Warmup:            cfg.warmup,
		Requests:          int(reqs.Load()),
		Questions:         int(asked),
		Errors:            int(errors),
		Canceled:          int(canceled.Load()),
		ErrorSample:       errSample,
		DurationSeconds:   elapsed.Seconds(),
		ThroughputQPS:     throughput,
		Latency: LatencyMS{
			P50:  ms(snap.Quantile(0.50)),
			P95:  ms(snap.Quantile(0.95)),
			P99:  ms(snap.Quantile(0.99)),
			Mean: ms(snap.Mean()),
			Max:  ms(snap.Max),
		},
		Cache:              cache,
		AnswerDigest:       foldDigest(digests),
		AllocsPerCachedAsk: allocsPerAsk,
		Thresholds:         cfg.thresholds(),
		Prefetch:           prefetchRep,
	}
	if cfg.sessionReplay {
		rep.SessionTurns = cfg.sessionTurns
		rep.FollowRatio = cfg.follow
	}
	if hdrv != nil {
		for _, tgt := range hdrv.targets {
			rep.Targets = append(rep.Targets, TargetReport{
				URL:      tgt.url,
				Requests: tgt.requests.Load(),
				Errors:   tgt.errors.Load(),
				Retried:  tgt.retried.Load(),
			})
		}
	}
	return rep, nil
}

// measureCachedAskAllocs measures heap allocations per exact-hit cached
// ask on the live engine, in the shape every ask of the mix takes: the
// ask records its turn in session memory (an append to the session's
// log, under one allocation amortized). A non-default eviction
// policy's hit-path cost shows up too. The testing package's
// AllocsPerRun is unavailable outside tests, so this replicates its
// method — pin to one P, prime, read the Mallocs delta over a run
// burst, round the average down to an integer exactly as AllocsPerRun
// documents (sub-1 noise is measurement artifact, not per-op cost) —
// and takes the minimum over several bursts: the probe runs right
// after a garbage-heavy load pass, so a single burst can absorb ambient
// noise (a GC emptying the scratch pools mid-burst, background
// sweeping) that per-ask cost accounting must not include. The true
// per-op cost is a floor under every burst; the minimum converges on
// it.
func measureCachedAskAllocs(eng *engine.Engine, question string) (float64, bool) {
	ctx := context.Background()
	req := engine.Request{SessionID: "loadgen-alloc-probe", Question: question}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Prime: ensure the answer is cached (the run normally already did)
	// and the scratch pools are populated, so the measurement sees the
	// steady state.
	for i := 0; i < 8; i++ {
		if _, err := eng.Ask(ctx, req); err != nil {
			return 0, false
		}
	}
	const (
		trials = 4
		runs   = 64
	)
	best := math.Inf(1)
	var before, after runtime.MemStats
	for t := 0; t < trials; t++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := eng.Ask(ctx, req); err != nil {
				return 0, false
			}
		}
		runtime.ReadMemStats(&after)
		if a := float64((after.Mallocs - before.Mallocs) / runs); a < best {
			best = a
		}
	}
	return best, true
}

// fnv64 hashes s with FNV-1a.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// foldDigest folds the per-slot answer hashes, in mix order, into one
// hex digest. Slots never asked (or only canceled) fold in as zero, so
// two clean runs of the same plan always agree.
func foldDigest(digests []atomic.Uint64) string {
	h := uint64(14695981039346656037)
	for i := range digests {
		v := digests[i].Load()
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// ms renders a duration as float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
