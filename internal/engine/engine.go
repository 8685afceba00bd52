// Package engine is CacheMind's reusable ask-path: the
// retrieve→classify→generate pipeline the §6.3 chat loop runs, extracted
// from the REPL into an Engine that is safe for concurrent callers. The
// CLI (cmd/cachemind) and the HTTP daemon (cmd/cachemindd) are both thin
// front-ends over Engine.Ask, so they share one code path — and every
// later scaling layer (sharded stores, batched retrieval, multi-backend
// fan-out) plugs in underneath this API.
//
// # Request/Response API
//
// Asks flow through Engine.Ask(ctx, Request) (Response, error):
//
//   - Request carries the session ID, the question, and per-request
//     Options (memory on/off, cache bypass, provenance verbosity);
//     cancellation and deadlines ride on the context.
//   - Response carries the answer plus structured metadata: cache
//     outcome, the shard the key hashed to, retriever and model names,
//     and per-stage Timings.
//   - Failures are typed *Error values with a stable Code
//     (invalid-request, canceled, deadline-exceeded, ...) that
//     front-ends map deterministically to transport statuses.
//
// The context is checked between pipeline stages (admission →
// retrieval → generation → record) and inside the retrieval query
// loop, so a disconnected client or an expired deadline aborts a cold
// ask before generation and frees the worker. A canceled leader never
// publishes to the answer cache; coalesced followers whose own context
// is still live retry the flight instead of inheriting the leader's
// cancellation.
//
// Concurrency contracts (enforced here, documented at the providers):
//
//   - db.Store and its Frames are immutable once built, so concurrent
//     reads — which is all retrieval does — are safe.
//   - retriever.Retrieve is read-only over the store and carries no
//     mutable retriever state; one retriever instance serves all
//     goroutines.
//   - generator.Generator is only concurrency-safe with a nil Memory and
//     fixed Shots; the engine keeps one memory-less generator shared by
//     all sessions, which also makes every answer a pure function of
//     (retriever, model, question).
//   - memory.Conversation is not thread-safe, reads included (they fill
//     its lazy vector cache); the engine owns one per session, the
//     session's only turn log, behind a per-session mutex.
//
// The purity of the generate step is what makes the answer cache sound:
// a cached answer is byte-identical to the one a fresh retrieval would
// produce.
//
// # Three-tier cache lookup
//
// With Config.SemanticThreshold in (0, 1) an ask is resolved through
// three tiers, cheapest first:
//
//	exact    — hash lookup on the byte-identical (retriever, model,
//	           question) key;
//	semantic — nearest-neighbor search over the cached questions'
//	           embedding vectors (internal/embed), serving the best
//	           neighbor at or above the threshold byte-identically;
//	cold     — the retrieve→classify→generate pipeline, coalesced by
//	           the cache shard's single-flight table.
//
// Response.Tier reports which tier served the answer (Cached is
// derived: Tier != TierCold), with Response.Similarity carrying the
// winning cosine score on semantic serves. Each cache shard keeps its
// slice of the vector index beside its entry map, mutated under the
// same lock, so eviction — under any Config.CachePolicy — removes an
// answer and its vector atomically; the semantic search itself fans
// out across all shards and takes the deterministic global best
// (score, then key). Per-request knobs: Options.NoSemantic skips the
// tier for one ask, Options.MinSimilarity overrides the threshold.
//
// Determinism caveat: a semantic hit returns the *neighbor's* stored
// answer — byte-identical to what the neighbor's question produced,
// not necessarily to what the asked question would produce cold. Which
// neighbor is resident depends on history and eviction, so semantic
// serving trades per-question byte-determinism for a ~400x latency
// win; the exact tier and the threshold-1.0 (or unset) configuration
// keep the old guarantees bit-for-bit.
//
// # Cache eviction policies
//
// The answer cache's residency is ordered by a pluggable
// policy.CachePolicy (OnHit/OnInsert/Victim plus the bytes and
// prefetch hooks — see internal/policy for the contract).
// Config.CachePolicy selects it by name: "lru" (the default, a native
// recency list with the engine's historical semantics) or any of the
// paper's replacement policies adapted by internal/policy.ForCache —
// RRIP variants, SHiP, Hawkeye, Mockingjay, the online MLP, and the
// rest of CachePolicies(). Policies only
// decide which entries stay resident; answers are pure functions of
// the cache key, so switching policy can change hit/miss totals and
// nothing else.
//
// CacheHits/CacheMisses count answered cache-routed asks, not raw map
// probes: a hit is an ask served without running the pipeline (a
// direct cache hit, a coalesced single-flight follower, or an answer
// found resident when claiming the key), a miss is an ask that ran it.
// Canceled or failed asks and BypassCache asks count neither.
//
// # Sharding
//
// The engine's hot mutable state — the session table and the answer
// cache, whose shards also hold the single-flight table — is split
// into Config.Shards hash-keyed shards (default one per CPU), each
// behind its own mutex, so concurrent asks only contend when they touch
// the same shard. A cache key or session ID always hashes to the same
// shard, which keeps answers byte-identical and hit/miss totals for a
// fixed ask sequence independent of the shard count; eviction and
// compaction run per shard over that shard's slice of the global
// MaxSessions/CacheSize budgets (a budget smaller than the shard count
// clamps that table's effective shard count, so the global bound holds
// exactly). See shard.go for the full design note.
//
// # Allocation discipline
//
// The cached exact-hit path is allocation-free: an Ask served from the
// exact tier performs zero heap allocations with Options.NoMemory, and
// under one amortized when it records its turn — an append to the
// session's log. TestCachedAskAllocs measures both shapes, with the
// semantic tier and the prefetcher on and off, and cmd/loadgen's
// -max-allocs gate measures the recorded shape in CI. The mechanics,
// and the ownership rules they impose:
//
//   - The (retriever, model, question) cache key is rendered into a
//     pooled askScratch buffer (scratchPool) instead of a fresh string,
//     and FNV-hashed exactly once per ask to select the cache shard.
//   - The cache probe is a zero-copy map lookup on the scratch bytes
//     (entries[string(key)] compiles without materializing the string),
//     and the default LRU policy refreshes recency through the
//     policy's OnHitBytes hook, again without a conversion.
//   - Cached answers are served without copying: Answer's fields are
//     immutable once published (strings plus a Queries slice nobody
//     mutates; Response.Queries is cloned only at ProvenanceFull).
//
// Ownership: a scratch is owned by exactly one in-flight Ask between
// pool Get and Put, and nothing that outlives the ask may alias its
// bytes — every structure that retains the key (the flight table, the
// cache entry, the eviction policy) receives a string copy materialized
// exactly once, on the miss path. Code extending the hot path must
// preserve these rules or the pool becomes a correctness hazard rather
// than an optimization.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/db"
	"cachemind/internal/embed"
	"cachemind/internal/generator"
	"cachemind/internal/llm"
	"cachemind/internal/memory"
	"cachemind/internal/nlu"
	"cachemind/internal/parallel"
	"cachemind/internal/policy"
	"cachemind/internal/retriever"
)

// DefaultCacheSize bounds the answer LRU when Config.CacheSize is zero.
const DefaultCacheSize = 256

// DefaultMemoryTurns is the per-session conversation buffer depth when
// Config.MemoryTurns is zero — the REPL's historical setting.
const DefaultMemoryTurns = 6

// DefaultMaxSessions bounds live sessions when Config.MaxSessions is
// zero.
const DefaultMaxSessions = 1024

// DefaultMaxSessionTurns bounds each session's retained history when
// Config.MaxSessionTurns is zero.
const DefaultMaxSessionTurns = 256

// Config parameterizes an Engine.
type Config struct {
	// Store is the trace database (required). The engine treats it as
	// immutable; do not Put frames into it after construction.
	Store *db.Store
	// Retriever selects the retrieval layer: "ranger" (default),
	// "sieve", or "llamaindex".
	Retriever string
	// Model is the generator backend profile ID (default "gpt-4o").
	Model string
	// MemoryTurns is the verbatim conversation-buffer depth per session
	// (default DefaultMemoryTurns).
	MemoryTurns int
	// MaxSessions bounds how many sessions the engine retains; when
	// exceeded, the session least recently asked a question is evicted
	// wholesale. 0 selects DefaultMaxSessions, negative is unlimited.
	// Untrusted callers (the daemon) mint session names freely, so this
	// is the daemon's memory ceiling.
	MaxSessions int
	// MaxSessionTurns bounds each session's retained history: when a
	// session's log reaches twice this bound it is compacted to the
	// most recent MaxSessionTurns turns (older turns fall out of
	// recall). 0 selects DefaultMaxSessionTurns, negative is unlimited.
	MaxSessionTurns int
	// CacheSize bounds the answer cache: 0 selects DefaultCacheSize,
	// negative disables caching entirely.
	CacheSize int
	// CachePolicy names the answer-cache eviction policy: "" or "lru"
	// (the default recency list, byte-identical to the pre-policy
	// engine), or any name in CachePolicies() — the paper's replacement
	// suite ("rrip", "ship", "hawkeye", "mockingjay", "mlp", ...)
	// adapted to the key-addressed cache by internal/policy.ForCache.
	// Policies change which entries stay resident (hit/miss totals),
	// never answer bytes.
	CachePolicy string
	// SemanticThreshold enables the semantic answer-cache tier: on an
	// exact-key miss, cached question vectors are searched for a
	// nearest neighbor whose cosine similarity is at or above this
	// value, and that neighbor's stored answer is served without
	// running the pipeline. 0 (the default) disables the tier — the
	// exact-only engine, byte-for-byte the pre-semantic behaviour — and
	// 1 degrades to it (cosine scores are float-fuzzy at the top, so an
	// "exactly 1.0" bar is not a usable match predicate; the acceptance
	// tests pin that 1.0 and 0 produce identical hit/miss totals and
	// answer bytes). Values outside [0, 1] are a configuration error.
	// 0.85 is a good starting point for the built-in embedder: case
	// and punctuation paraphrases score ≥ 0.99, rewordings that share
	// most content words score ≈ 0.9, and unrelated suite questions
	// score well below 0.8.
	SemanticThreshold float64
	// Shards is how many ways the session table and the answer cache
	// (which holds the single-flight table) are each split (one mutex
	// per shard). Values < 1 select DefaultShards(), one shard per CPU.
	// Shards: 1 reproduces the pre-sharding global-lock semantics
	// exactly, including global eviction order. The MaxSessions and CacheSize
	// budgets are divided across shards; a budget smaller than the
	// shard count clamps that table's effective shard count (one entry
	// per clamped shard), so the configured global bound is exact.
	Shards int
	// Prefetch configures the predictive session prefetcher: a
	// TAGE-style next-question predictor over per-session ask history
	// whose predictions are executed by background workers and inserted
	// as low-priority cache fills (see prefetch.go and
	// internal/predict). The zero value disables it. Enabling it with
	// caching disabled (CacheSize < 0) is a configuration error — there
	// is nothing to fill. Engines with prefetching own background
	// goroutines; call Close when done.
	Prefetch PrefetchConfig
	// CustomRetriever, when non-nil, overrides Retriever with a caller
	// -supplied implementation (tests, future multi-backend fan-out).
	// It must be safe for concurrent Retrieve calls.
	CustomRetriever retriever.Retriever
}

// Answer is the pipeline's product: the generated response plus the
// provenance and stage timings it was produced with. It is what the
// answer cache stores; front-ends consume the Response built from it.
// The JSON tags are the checkpoint/handoff wire format (snapshot.go);
// durations serialize as nanoseconds.
type Answer struct {
	// Text is the full response shown to the user.
	Text string `json:"text"`
	// Verdict is the canonical short answer (generator.Answer.Verdict).
	Verdict string `json:"verdict,omitempty"`
	// Category is the classified intent name ("miss_rate", ...).
	Category string `json:"category,omitempty"`
	// Quality grades the retrieved evidence ("Low"/"Medium"/"High").
	Quality string `json:"quality,omitempty"`
	// Grounded reports whether the answer was derived from evidence.
	Grounded bool `json:"grounded,omitempty"`
	// Context is the retrieved evidence bundle.
	Context string `json:"context,omitempty"`
	// Queries is the per-query execution trace (one line per retrieval
	// query: target and outcome).
	Queries []string `json:"queries,omitempty"`
	// Retrieval is the wall-clock retrieval time of the original
	// (uncached) retrieval.
	Retrieval time.Duration `json:"retrieval_ns,omitempty"`
	// Generation is the wall-clock generation time of the original
	// computation.
	Generation time.Duration `json:"generation_ns,omitempty"`
}

// Turn is one question/answer exchange within a session; its JSON tags
// are the daemon's GET /v1/sessions/{id} wire format.
type Turn = memory.Turn

// session is one conversation. Its memory holds the turn log served by
// GET /v1/sessions/{id}.
type session struct {
	id string

	mu   sync.Mutex
	conv *memory.Conversation
}

// Engine executes the ask-path. Safe for concurrent use.
type Engine struct {
	store   *db.Store
	retr    retriever.Retriever
	profile *llm.Profile
	// gen is shared across goroutines: with nil Memory and no Shots it
	// is read-only (see the package comment).
	gen         *generator.Generator
	memoryTurns int
	maxTurns    int // <= 0: unlimited
	nshards     int
	cachePolicy string
	// semThreshold is the effective semantic-tier threshold: a value in
	// (0, 1) when the tier is live, 0 when disabled (unset, configured
	// to the degenerate 1.0, or caching off). The per-shard semantic
	// indexes exist — and miss-path embeddings are computed — only when
	// this is non-zero.
	semThreshold float64

	// keyPrefix is the constant (retriever, model) head of every cache
	// key this engine mints — precomputed so the hot path builds a key
	// with two appends into pooled scratch instead of a fresh string
	// concatenation per ask.
	keyPrefix string

	// Hot mutable state, hash-sharded (see shard.go): sessionShards is
	// keyed by session ID, caches by the cache key. Each cache shard
	// also coalesces concurrent misses for its keys, so N simultaneous
	// first-asks run one retrieval, not N. The session and cache tables
	// may run with fewer shards than nshards when their entry budgets
	// are smaller than the configured shard count (shardCount);
	// ncacheShards is the cache count the ask path hashes with.
	sessionShards []*sessionShard
	caches        []*answerCache // nil when caching is disabled
	ncacheShards  int

	// pf is the predictive prefetcher, nil unless Config.Prefetch is
	// enabled. The ask path's only interaction with it is one
	// non-blocking channel send (see prefetcher.observe).
	pf *prefetcher

	questions       atomic.Uint64
	canceled        atomic.Uint64
	sessionsEvicted atomic.Uint64
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("engine: Config.Store is required")
	}
	modelID := cfg.Model
	if modelID == "" {
		modelID = "gpt-4o"
	}
	profile, ok := llm.ByID(modelID)
	if !ok {
		return nil, fmt.Errorf("engine: unknown model %q", modelID)
	}

	retr := cfg.CustomRetriever
	if retr == nil {
		name := cfg.Retriever
		if name == "" {
			name = "ranger"
		}
		switch name {
		case "ranger":
			retr = retriever.NewRanger(cfg.Store)
		case "sieve":
			retr = retriever.NewSieve(cfg.Store)
		case "llamaindex":
			retr = retriever.NewEmbeddingRetriever(cfg.Store, 40)
		default:
			return nil, fmt.Errorf("engine: unknown retriever %q", name)
		}
	}

	memoryTurns := cfg.MemoryTurns
	if memoryTurns == 0 {
		memoryTurns = DefaultMemoryTurns
	}
	maxSessions := cfg.MaxSessions
	if maxSessions == 0 {
		maxSessions = DefaultMaxSessions
	}
	maxTurns := cfg.MaxSessionTurns
	if maxTurns == 0 {
		maxTurns = DefaultMaxSessionTurns
	}
	nshards := cfg.Shards
	if nshards < 1 {
		nshards = DefaultShards()
	}
	policyName := cfg.CachePolicy
	if policyName == "" {
		policyName = "lru"
	}
	if cfg.SemanticThreshold < 0 || cfg.SemanticThreshold > 1 {
		return nil, fmt.Errorf("engine: SemanticThreshold %v outside [0, 1]", cfg.SemanticThreshold)
	}
	semThreshold := cfg.SemanticThreshold
	if semThreshold >= 1 || cfg.CacheSize < 0 {
		// 1.0 is the documented exact-only degenerate; without a cache
		// there is nothing to index.
		semThreshold = 0
	}

	nsess := shardCount(maxSessions, nshards)
	sessionShards := make([]*sessionShard, nsess)
	for i, budget := range shardBudget(maxSessions, nsess) {
		sessionShards[i] = newSessionShard(budget)
	}

	ncache := nshards
	var caches []*answerCache
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		ncache = shardCount(size, nshards)
		caches = make([]*answerCache, ncache)
		for i, budget := range shardBudget(size, ncache) {
			pol, err := newEvictionPolicy(policyName, budget, int64(i))
			if err != nil {
				return nil, err
			}
			caches[i] = newAnswerCache(budget, pol, semThreshold > 0)
		}
	} else if _, err := newEvictionPolicy(policyName, 1, 0); err != nil {
		// Caching disabled: the policy never runs, but an unknown name
		// is still a configuration error worth failing fast on.
		return nil, err
	}
	if cfg.Prefetch.Enabled && caches == nil {
		return nil, fmt.Errorf("engine: Prefetch requires caching (CacheSize >= 0)")
	}
	e := &Engine{
		store:         cfg.Store,
		retr:          retr,
		profile:       profile,
		gen:           generator.New(profile),
		memoryTurns:   memoryTurns,
		maxTurns:      maxTurns,
		nshards:       nshards,
		cachePolicy:   policyName,
		semThreshold:  semThreshold,
		keyPrefix:     retr.Name() + "\x00" + profile.ID + "\x00",
		sessionShards: sessionShards,
		caches:        caches,
		ncacheShards:  ncache,
	}
	if cfg.Prefetch.Enabled {
		e.pf = newPrefetcher(e, cfg.Prefetch)
	}
	return e, nil
}

// newEvictionPolicy builds the named eviction policy for one cache
// shard: the native recency list for "lru", the internal/policy
// adapter for everything else. The seed (the shard index) pins any
// stochastic policy choice, so a fixed configuration replays fixed
// eviction decisions.
func newEvictionPolicy(name string, capacity int, seed int64) (policy.CachePolicy, error) {
	if name == "lru" {
		return newLRUList(), nil
	}
	pol, err := policy.ForCache(name, capacity, seed)
	if err != nil {
		return nil, Errf(CodeInvalidRequest, "cache policy: %v", err)
	}
	return pol, nil
}

// CachePolicies lists the canonical names Config.CachePolicy accepts,
// sorted — the native "lru" plus the paper's policy suite adapted by
// internal/policy.ForCache (offline-only policies like Belady and
// PARROT are excluded; they need a future-access oracle or a training
// trace a serving system does not have). Aliases ("rrip" for "srrip")
// are accepted by Config.CachePolicy but not listed, so iterating this
// registry never runs one policy twice.
func CachePolicies() []string { return policy.CacheNames() }

// askScratch is the pooled per-ask scratch state: the cache-key bytes
// the hot path builds, probes and (on a miss) materializes from.
//
// Ownership rule: a scratch is owned by exactly one in-flight Ask from
// Get to Put. Nothing that outlives the ask may alias sc.key — the
// cache, flight table and eviction policies all receive a materialized
// string copy instead — so returning a scratch to the pool can never
// corrupt a published key. See the package comment's pooling note.
type askScratch struct {
	key []byte
}

// scratchCap bounds the key buffer a scratch may carry back into the
// pool; a rare oversized question must not pin its buffer forever.
const scratchCap = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(askScratch) }}

// putScratch returns sc to the pool, dropping oversized buffers.
func putScratch(sc *askScratch) {
	if cap(sc.key) <= scratchCap {
		scratchPool.Put(sc)
	}
}

// cacheKey renders the (retriever, model, question) cache triple into
// sc.key — the same bytes Engine.keyPrefix+question would concatenate,
// without the per-ask string allocation.
func (e *Engine) cacheKey(sc *askScratch, question string) []byte {
	sc.key = append(append(sc.key[:0], e.keyPrefix...), question...)
	return sc.key
}

// Ask answers the request's question within its session, creating the
// session on first use. A repeated question (same retriever, model and
// text) is served from the answer cache without invoking the retriever;
// either way the exchange is recorded in the session's conversation
// memory unless Options.NoMemory is set. The context carries
// cancellation and deadlines: it is checked between pipeline stages,
// and an ask aborted by it returns a typed *Error (CodeCanceled or
// CodeDeadlineExceeded) without recording the exchange or poisoning
// the cache. Safe for concurrent callers, including within one session.
func (e *Engine) Ask(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	if ctx == nil {
		//cachemind:allow-ctx nil-ctx compatibility fallback for library callers, not a detach
		ctx = context.Background()
	}
	question := strings.TrimSpace(req.Question)
	if question == "" {
		return Response{}, Errf(CodeInvalidRequest, "question must not be empty")
	}
	if s := req.Options.MinSimilarity; s < 0 || s > 1 {
		return Response{}, Errf(CodeInvalidRequest, "min similarity %v outside [0, 1]", s)
	}
	// Admission checkpoint: a request that arrives already canceled
	// (e.g. a batch sibling after a mid-batch cancel) never runs.
	if err := ctxError(ctx); err != nil {
		e.canceled.Add(1)
		return Response{}, err
	}
	e.questions.Add(1)

	// Build the (retriever, model, question) key once, in pooled
	// scratch, and hash it once to pick the cache shard.
	sc := scratchPool.Get().(*askScratch)
	shard := shardIndexHash(fnv32a(e.cacheKey(sc, question)), e.ncacheShards)

	var (
		ans  Answer
		tier CacheTier
		sim  float64
		err  error
	)
	if e.caches == nil || req.Options.BypassCache {
		// Caching disabled or bypassed: run the full pipeline fresh,
		// without touching the cache (either tier) or the single-flight
		// table.
		putScratch(sc)
		tier = TierCold
		ans, err = e.pipeline(ctx, question)
	} else {
		// cachedAsk owns sc from here and returns it to the pool.
		ans, tier, sim, err = e.cachedAsk(ctx, shard, sc, question, req.Options)
	}
	if err != nil {
		if IsCancellation(ErrorCode(err)) {
			e.canceled.Add(1)
		}
		return Response{}, err
	}

	if !req.Options.NoMemory {
		e.record(req.SessionID, question, ans.Text)
		if e.pf != nil {
			// One non-blocking send; the predictor update and any
			// speculative fills happen on background workers, so the
			// foreground ask pays no latency and no allocations for
			// prefetching (NoMemory asks are not session turns and train
			// nothing).
			e.pf.observe(req.SessionID, question)
		}
	}
	return e.response(req, question, ans, tier, sim, shard, start), nil
}

// cachedAsk serves the question through the three-tier lookup of the
// key's shard: the exact answer cache, then (when enabled and not
// opted out) the semantic nearest-neighbor tier across all cache
// shards, then the single-flight-coalesced cold pipeline, joined or
// led through the shard's claim and settle. The loop claims the key
// again after an aborted call: when a leader's context cancels
// mid-pipeline, its followers — whose own contexts may still be live —
// retry and elect a new leader instead of inheriting the cancellation,
// which keeps coalescing consistent without ever publishing an aborted
// answer.
//
// Hit/miss accounting happens here, exactly once per answered ask: a
// hit is an ask served without running the pipeline (direct cache hit,
// semantic serve, coalesced follower, or an answer found resident at
// claim), a miss is an ask whose pipeline ran to completion (counted by
// settle, before the followers wake). Canceled and failed asks count
// neither — they were never answered — so hits+misses always equals
// the number of answered cache-routed asks, whatever the interleaving
// of leaders, followers and aborts; the semantic tier adds a second
// *kind* of hit, never a second count. Coalesced followers and answers
// found at claim count as exact hits: they were served under the
// byte-identical key, not by similarity.
//
// cachedAsk takes ownership of sc (the ask's key scratch): the exact-
// hit fast path probes the cache straight from the pooled bytes and
// allocates nothing; every miss path materializes the heap string once
// — the flight table, the cache insert and the eviction policy all
// retain it — and returns the scratch before any slow work runs.
// (TestCachedAskAllocs measures the hit path's budget: 0 allocs per
// NoMemory hit, with or without the semantic tier and the prefetcher.)
func (e *Engine) cachedAsk(ctx context.Context, shard int, sc *askScratch, question string, opts Options) (Answer, CacheTier, float64, error) {
	cache := e.caches[shard]

	if ans, ok := cache.touch(sc.key); ok {
		putScratch(sc)
		cache.exactHits.Add(1)
		return ans, TierExact, 0, nil
	}

	// Exact miss: the slow tiers retain the key (flight map, cache
	// entry, policy state), so materialize it as a string once and
	// release the scratch — copying here keeps the pooled bytes from
	// ever being aliased past this ask.
	key := string(sc.key)
	putScratch(sc)

	// Semantic tier: embed once per exact miss. The vector serves both
	// the neighbor search here and, if this ask goes cold, the index
	// insert on publish — a NoSemantic (or per-request exact-only) ask
	// skips the search but still contributes its vector, so it can
	// serve later semantic lookups by other requests.
	var qvec *embed.Vector
	if e.semThreshold > 0 {
		v := embed.Embed(question)
		qvec = &v
		min := e.semThreshold
		if opts.MinSimilarity > 0 {
			min = opts.MinSimilarity
		}
		if !opts.NoSemantic && min < 1 {
			if ans, sim, ok := e.semanticLookup(v, min); ok {
				// Counted on the query's home shard (the shard in the
				// Response), wherever the neighbor resides.
				cache.semanticHits.Add(1)
				return ans, TierSemantic, sim, nil
			}
		}
	}

	for {
		// Coalesce concurrent misses for the same key: one leader runs
		// the pipeline, followers wait and share its answer (sound
		// because answers are pure functions of the key).
		ans, call, lead := cache.claim(key, false)
		if call == nil {
			// Published (by a demand leader, a prefetch fill or an
			// import) since the exact probe above.
			cache.exactHits.Add(1)
			return ans, TierExact, 0, nil
		}
		if lead {
			ans, err := e.pipeline(ctx, question)
			cache.settle(key, call, ans, err, qvec)
			return ans, TierCold, 0, err
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			return Answer{}, TierCold, 0, ctxError(ctx)
		}
		if call.err == nil {
			// Served without invoking the retriever: a coalesced
			// follower is a hit — it was answered from shared work,
			// not a pipeline run of its own.
			cache.exactHits.Add(1)
			if call.prefetch {
				// The shared work was speculative: this demand ask
				// would have been a miss without the prefetcher, so
				// the entry's covered credit is claimed (once).
				cache.coverFlight(key)
			}
			return call.ans, TierExact, 0, nil
		}
		// The leader aborted (its context canceled). Claim again — a
		// later leader may have published by now — unless this caller
		// is itself done.
		if err := ctxError(ctx); err != nil {
			return Answer{}, TierCold, 0, err
		}
	}
}

// semanticLookup searches every cache shard's question-vector index
// for the globally best neighbor of qv at or above min, scoped to this
// engine's (retriever, model) by construction — every cached key
// carries them. Each shard is scanned under its own lock with the
// answer snapshotted in the same critical section, so the winner's
// (key, answer) pair is consistent; the global argmax (score, then
// key) is deterministic regardless of shard count or scan order, which
// keeps semantic hit totals shard-count-independent for a fixed ask
// sequence. On a win the neighbor's recency/priority is refreshed —
// paraphrase traffic keeps its canonical entry resident, exactly the
// reuse signal the eviction policies feed on.
func (e *Engine) semanticLookup(qv embed.Vector, min float64) (Answer, float64, bool) {
	var (
		bestAns   Answer
		bestKey   string
		bestScore float64
		bestShard = -1
	)
	for si, c := range e.caches {
		key, ans, score, ok := c.bestSimilar(qv, min)
		if !ok {
			continue
		}
		if bestShard < 0 || score > bestScore || (score == bestScore && key < bestKey) {
			bestAns, bestKey, bestScore, bestShard = ans, key, score, si
		}
	}
	if bestShard < 0 {
		return Answer{}, 0, false
	}
	e.caches[bestShard].refresh(bestKey)
	return bestAns, bestScore, true
}

// response assembles the Response for one completed ask, applying the
// request's provenance verbosity. Cached is derived from the serving
// tier — the tier is the source of truth.
func (e *Engine) response(req Request, question string, ans Answer, tier CacheTier, sim float64, shard int, start time.Time) Response {
	resp := Response{
		SessionID:  req.SessionID,
		Question:   question,
		Text:       ans.Text,
		Verdict:    ans.Verdict,
		Category:   ans.Category,
		Quality:    ans.Quality,
		Grounded:   ans.Grounded,
		Tier:       tier,
		Similarity: sim,
		Cached:     tier != TierCold,
		Shard:      shard,
		Retriever:  e.retr.Name(),
		Model:      e.profile.ID,
		Timings: Timings{
			Retrieval:  ans.Retrieval,
			Generation: ans.Generation,
			Total:      time.Since(start),
		},
	}
	if req.Options.Provenance >= ProvenanceContext {
		resp.Context = ans.Context
	}
	if req.Options.Provenance >= ProvenanceFull {
		resp.Queries = append([]string(nil), ans.Queries...)
	}
	return resp
}

// AskBatch answers requests concurrently on at most workers goroutines
// (values <= 0 select one per CPU) and returns results in input order.
// Errors are per item — a rejected question never aborts the rest of
// the batch, and canceling ctx mid-batch aborts the in-flight items at
// their next checkpoint while the remaining items fail fast at
// admission, each with its own typed cancellation error. This is the
// daemon's POST /v1/ask/batch path and the bulk entry point for load
// generators: batched asks amortize scheduling and let the sharded
// cache and session table absorb the fan-out.
func (e *Engine) AskBatch(ctx context.Context, reqs []Request, workers int) []AskResult {
	out := make([]AskResult, len(reqs))
	// fn never returns an error (per-item errors land in out), so
	// ForEach cannot abort early and every index is visited.
	_ = parallel.ForEach(len(reqs), workers, func(i int) error {
		out[i].Response, out[i].Err = e.Ask(ctx, reqs[i])
		return nil
	})
	return out
}

// pipeline runs the uncached retrieve→classify→generate pipeline with
// a cancellation checkpoint between the stages. For a live context the
// answer is a pure function of the question (for a fixed store,
// retriever and profile) — the property the cache and the REPL-parity
// tests rely on.
func (e *Engine) pipeline(ctx context.Context, question string) (Answer, error) {
	rctx := e.retr.Retrieve(ctx, question)
	// Checkpoint: abort a canceled ask before generation. The
	// retriever observes the same context between its queries, so a
	// cancellation mid-retrieval lands here with a partial bundle that
	// is discarded.
	if err := ctxError(ctx); err != nil {
		return Answer{}, err
	}
	category := rctx.Parsed.Intent.String()

	// The analysis tier renders through the rubric-structured path; all
	// other intents go through grounded answer synthesis — exactly the
	// REPL's historical routing.
	genStart := time.Now()
	var gen generator.Answer
	var err error
	switch rctx.Parsed.Intent {
	case nlu.IntentConcept, nlu.IntentPolicyAnalysis, nlu.IntentSemanticAnalysis, nlu.IntentCodeGen:
		gen, err = e.gen.AnalysisAnswer(ctx, question, category, question, rctx)
	default:
		gen, err = e.gen.Answer(ctx, question, category, question, rctx)
	}
	if err != nil {
		// Context-derived failures get the typed cancellation error;
		// anything else (a future remote backend's API failure) must
		// surface as internal — never as a silent empty answer that
		// would be published to the cache.
		if cerr := ctxError(ctx); cerr != nil {
			return Answer{}, cerr
		}
		return Answer{}, &Error{Code: CodeInternal, Message: "generation failed", Err: err}
	}
	return Answer{
		Text:       gen.Text,
		Verdict:    gen.Verdict,
		Category:   category,
		Quality:    rctx.Quality.String(),
		Grounded:   gen.Grounded,
		Context:    rctx.Text,
		Queries:    queryTrace(rctx),
		Retrieval:  rctx.Elapsed,
		Generation: time.Since(genStart),
	}, nil
}

// queryTrace renders the retrieval's executed queries as one
// provenance line each — the ProvenanceFull payload.
func queryTrace(rctx retriever.Context) []string {
	if len(rctx.Executed) == 0 {
		return nil
	}
	out := make([]string, len(rctx.Executed))
	for i, ex := range rctx.Executed {
		outcome := "ok"
		if ex.Err != nil {
			outcome = "error: " + ex.Err.Error()
		}
		out[i] = fmt.Sprintf("%s workload=%s policy=%s -> %s",
			ex.Query.Agg, ex.Query.Workload, ex.Query.Policy, outcome)
	}
	return out
}

// record appends the exchange to the session's turn log.
func (e *Engine) record(sessionID, question, answer string) {
	s := e.session(sessionID)
	s.mu.Lock()
	defer s.mu.Unlock()
	e.appendTurn(s.conv, question, answer)
}

// appendTurn appends one turn to a session's log and compacts the log
// to its most recent maxTurns turns at twice that bound: the copy
// amortizes to O(1) per turn, the survivors keep their vectors, and
// the backing array never outgrows the bound.
func (e *Engine) appendTurn(conv *memory.Conversation, question, answer string) {
	conv.Add(question, answer)
	if e.maxTurns > 0 && conv.Len() >= 2*e.maxTurns {
		conv.Keep(e.maxTurns)
	}
}

// session returns the named session, creating it on first use and
// marking it most recently used within its shard. When the shard's
// session budget is exceeded, its least recently asked session is
// evicted wholesale.
func (e *Engine) session(id string) *session {
	sh := e.sessionShards[shardIndex(id, len(e.sessionShards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.sessions[id]; ok {
		sh.byRecency.MoveToFront(el)
		return el.Value.(*session)
	}
	s := &session{id: id, conv: memory.New(e.memoryTurns)}
	sh.sessions[id] = sh.byRecency.PushFront(s)
	for sh.max > 0 && sh.byRecency.Len() > sh.max {
		oldest := sh.byRecency.Back()
		sh.byRecency.Remove(oldest)
		delete(sh.sessions, oldest.Value.(*session).id)
		e.sessionsEvicted.Add(1)
	}
	return s
}

// lookup returns the live session without touching recency (reads do
// not keep a session alive).
func (e *Engine) lookup(id string) (*session, bool) {
	sh := e.sessionShards[shardIndex(id, len(e.sessionShards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.sessions[id]
	if !ok {
		return nil, false
	}
	return el.Value.(*session), true
}

// SessionTurns returns the session's retained exchange log, oldest
// first (bounded by Config.MaxSessionTurns); ok is false when the
// session does not exist (never asked, or evicted).
func (e *Engine) SessionTurns(id string) (turns []Turn, ok bool) {
	s, ok := e.lookup(id)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conv.Turns(), true
}

// SessionView returns the session's turn log and conversation-memory
// view as one consistent snapshot (both read under the session lock) —
// the source of GET /v1/sessions/{id}. A session that does not exist
// (never asked, or evicted) yields a typed *Error with
// CodeSessionNotFound.
func (e *Engine) SessionView(id, question string) (turns []Turn, mem string, err error) {
	s, ok := e.lookup(id)
	if !ok {
		return nil, "", Errf(CodeSessionNotFound, "unknown session %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conv.Turns(), s.conv.ContextBlock(question), nil
}

// SessionIDs lists every live session across all shards, sorted.
func (e *Engine) SessionIDs() []string {
	var out []string
	for _, sh := range e.sessionShards {
		sh.mu.Lock()
		for id := range sh.sessions {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Stats is a point-in-time snapshot of the engine's counters — the
// daemon's /metrics source.
type Stats struct {
	// Questions counts every Ask that passed validation and admission.
	Questions uint64
	// Canceled counts asks aborted by their context (canceled or
	// deadline-exceeded), whether at admission or mid-pipeline.
	Canceled uint64
	// CachePolicy names the active answer-cache eviction policy.
	CachePolicy string
	// SemanticThreshold is the live semantic-tier threshold: a value in
	// (0, 1), or 0 when the tier is disabled (unset, or the degenerate
	// 1.0 configuration).
	SemanticThreshold float64
	// CacheHits/CacheMisses count answered cache-routed asks (both zero
	// when caching is disabled): a hit was served without running the
	// pipeline (exact cache hit, semantic serve, coalesced single-
	// flight follower, or an answer found resident at claim), a miss ran
	// it. Canceled/failed asks and BypassCache asks count neither, so Hits+Misses
	// equals the number of answered asks that went through the cache.
	// CacheHits is always CacheExactHits+CacheSemanticHits — the split
	// preserves the total, it never re-counts.
	CacheHits   uint64
	CacheMisses uint64
	// CacheExactHits counts hits served under the byte-identical
	// (retriever, model, question) key — including coalesced followers
	// and answers found resident at claim, which ride the exact key.
	CacheExactHits uint64
	// CacheSemanticHits counts hits served by the semantic tier: a
	// nearest cached neighbor at or above the effective threshold,
	// whose stored answer was returned byte-identically.
	CacheSemanticHits uint64
	// CacheBypasses counts insertions the eviction policy declined
	// (a Victim bypass decision; the answer was still served).
	CacheBypasses uint64
	// CacheEntries is the number of live cached answers.
	CacheEntries int
	// CacheShards is the per-shard cache breakdown, indexed by the
	// shard reported in Response.Shard (nil when caching is disabled).
	CacheShards []CacheShardStats
	// Sessions is the number of live sessions.
	Sessions int
	// SessionsEvicted counts sessions dropped by the MaxSessions bound.
	SessionsEvicted uint64
	// Shards is the engine's configured shard count. Individual tables
	// may run with fewer shards when their entry budget is smaller than
	// this (see Config.Shards); len(CacheShards) is the cache's
	// effective count.
	Shards int
	// Prefetch is the predictive prefetcher's counter snapshot (see
	// PrefetchStats); all-zero with Enabled false when prefetching is
	// off. Covered never overlaps CacheMisses — a covered ask was served
	// as a hit — so covered/(covered+misses) is the fraction of
	// would-be misses the prefetcher absorbed.
	Prefetch PrefetchStats
}

// CacheShardStats is one answer-cache shard's counters. Hits is always
// ExactHits+SemanticHits; SemanticHits counts on the shard the query
// hashed to (the Response.Shard), wherever the served neighbor
// resides.
type CacheShardStats struct {
	Hits         uint64
	ExactHits    uint64
	SemanticHits uint64
	Misses       uint64
	Bypasses     uint64
	Entries      int
}

// Stats returns the current counters, summed across shards. Each shard
// is snapshotted under its own lock, so totals are exact for a
// quiescent engine and monotone-consistent under load.
func (e *Engine) Stats() Stats {
	st := Stats{
		Questions:         e.questions.Load(),
		Canceled:          e.canceled.Load(),
		CachePolicy:       e.cachePolicy,
		SemanticThreshold: e.semThreshold,
		SessionsEvicted:   e.sessionsEvicted.Load(),
		Shards:            e.nshards,
	}
	if e.caches != nil {
		st.CacheShards = make([]CacheShardStats, len(e.caches))
	}
	for i, c := range e.caches {
		exact, semantic, misses, bypasses, entries := c.counters()
		st.CacheShards[i] = CacheShardStats{
			Hits:         exact + semantic,
			ExactHits:    exact,
			SemanticHits: semantic,
			Misses:       misses,
			Bypasses:     bypasses,
			Entries:      entries,
		}
		st.CacheHits += exact + semantic
		st.CacheExactHits += exact
		st.CacheSemanticHits += semantic
		st.CacheMisses += misses
		st.CacheBypasses += bypasses
		st.CacheEntries += entries
	}
	for _, sh := range e.sessionShards {
		sh.mu.Lock()
		st.Sessions += len(sh.sessions)
		sh.mu.Unlock()
	}
	if e.pf != nil {
		st.Prefetch = PrefetchStats{
			Enabled:     true,
			Predictions: e.pf.predictions.Load(),
			Issued:      e.pf.issued.Load(),
			Dropped:     e.pf.dropped.Load(),
		}
		for _, c := range e.caches {
			covered, wasted := c.prefetchCounters()
			st.Prefetch.Covered += covered
			st.Prefetch.Wasted += wasted
		}
	}
	return st
}

// CachePolicyName returns the active answer-cache eviction policy.
func (e *Engine) CachePolicyName() string { return e.cachePolicy }

// SemanticThreshold returns the live semantic-tier threshold: a value
// in (0, 1), or 0 when the tier is disabled.
func (e *Engine) SemanticThreshold() float64 { return e.semThreshold }

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.nshards }

// Store returns the underlying database (treat as read-only).
func (e *Engine) Store() *db.Store { return e.store }

// RetrieverName returns the active retriever's name.
func (e *Engine) RetrieverName() string { return e.retr.Name() }

// Profile returns the generator backend profile (treat as read-only).
func (e *Engine) Profile() *llm.Profile { return e.profile }
