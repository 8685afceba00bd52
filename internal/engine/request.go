package engine

import "time"

// Provenance selects how much retrieval provenance a Response carries.
// The evidence bundle can be kilobytes, so callers opt in per request
// instead of paying for it on every answer.
type Provenance int

const (
	// ProvenanceNone omits the retrieved context entirely (the
	// default — answers only).
	ProvenanceNone Provenance = iota
	// ProvenanceContext includes the retrieved evidence bundle
	// (Response.Context) — the REPL's -show-context view.
	ProvenanceContext
	// ProvenanceFull additionally includes the per-query execution
	// trace (Response.Queries): one line per retrieval query with its
	// target and outcome.
	ProvenanceFull
)

// CacheTier names how an ask was served — the three-tier lookup's
// source of truth (Response.Cached is derived from it). The tiers are
// probed in order: exact hash, semantic nearest-neighbor, cold
// pipeline.
type CacheTier string

const (
	// TierExact: the answer came from the answer cache under the
	// byte-identical (retriever, model, question) key — including
	// coalesced single-flight followers and answers found resident
	// when claiming the key, which were answered from work keyed by
	// that exact triple.
	TierExact CacheTier = "exact"
	// TierSemantic: no exact entry existed, but a cached question
	// within the same (retriever, model) scope embedded close enough
	// (≥ the effective similarity threshold), and that neighbor's
	// stored answer was served byte-identically.
	TierSemantic CacheTier = "semantic"
	// TierCold: the retrieve→classify→generate pipeline ran (a cache
	// miss, a BypassCache ask, or a cache-disabled engine).
	TierCold CacheTier = "cold"
)

// Options are the per-request knobs of an ask. The zero value is the
// default behaviour: record conversation memory, use the answer cache,
// return no provenance. Cancellation and deadlines are carried by the
// context passed to Ask, not by Options.
type Options struct {
	// NoMemory skips recording the exchange in the session's turn log
	// (a stateless one-shot ask; it does not create or touch the
	// session at all).
	NoMemory bool
	// BypassCache skips the answer cache and single-flight coalescing
	// entirely: the pipeline runs fresh and the result is not
	// published. Answers are pure functions of the question, so this
	// changes timing and counters, never bytes. Implies no semantic
	// serving (the semantic tier is part of the cache lookup).
	BypassCache bool
	// NoSemantic skips the semantic tier for this request: an exact
	// miss goes straight to the cold pipeline instead of searching for
	// a similar cached question. The answer is still indexed on the
	// way in, so it can serve later semantic lookups by other requests.
	NoSemantic bool
	// MinSimilarity overrides the engine's semantic threshold for this
	// request: 0 selects the engine default (Config.SemanticThreshold),
	// values in (0, 1) serve any neighbor at or above them, and 1
	// disables semantic serving for this request (exact-only — cosine
	// scores are float-fuzzy at the top, so "exactly 1.0" is not a
	// usable match bar and the bound degrades to the exact tier).
	// Values outside [0, 1] are rejected with CodeInvalidRequest.
	// No-op when the engine's semantic tier is disabled (there is no
	// index to search).
	MinSimilarity float64
	// Provenance selects the context-provenance verbosity of the
	// Response.
	Provenance Provenance
}

// Request is one ask: the session it belongs to, the question, and the
// per-request options.
type Request struct {
	// SessionID names the conversation; it is created on first use.
	// Empty selects the shared anonymous session.
	SessionID string
	// Question is the natural-language question (leading/trailing
	// whitespace is trimmed).
	Question string
	// Options carries the per-request knobs (zero value = defaults).
	Options Options
}

// Timings is the per-stage latency breakdown of one ask. For a cached
// answer, Retrieval and Generation report the original computation
// that produced the cache entry; Total always reports this request's
// wall clock.
type Timings struct {
	// Retrieval is the wall-clock retrieval time.
	Retrieval time.Duration
	// Generation is the wall-clock generation time.
	Generation time.Duration
	// Total is this request's end-to-end time inside the engine.
	Total time.Duration
}

// Response is one completed ask: the generated answer plus the
// structured metadata front-ends render (cache outcome, shard,
// retriever, per-stage timings, optional provenance).
type Response struct {
	// SessionID echoes the request's session.
	SessionID string
	// Question is the trimmed question that was answered.
	Question string

	// Text is the full response shown to the user.
	Text string
	// Verdict is the canonical short answer (generator.Answer.Verdict).
	Verdict string
	// Category is the classified intent name ("miss_rate", ...).
	Category string
	// Quality grades the retrieved evidence ("Low"/"Medium"/"High").
	Quality string
	// Grounded reports whether the answer was derived from evidence.
	Grounded bool

	// Tier reports which cache tier served this answer: TierExact,
	// TierSemantic, or TierCold — the source of truth for the cache
	// outcome (Cached is derived from it).
	Tier CacheTier
	// Similarity is the cosine similarity between this question and
	// the served neighbor's question on a TierSemantic answer; 0
	// otherwise.
	Similarity float64
	// Cached reports whether this answer was served without running
	// the pipeline (Tier != TierCold): an exact answer-cache hit, a
	// coalesced single-flight follower, or a semantic-tier serve. Kept
	// as a derived compatibility field — new code should branch on
	// Tier.
	Cached bool
	// Shard is the cache/flight shard the question's key hashed to.
	Shard int
	// Retriever is the serving retriever's name.
	Retriever string
	// Model is the generator backend profile ID.
	Model string

	// Context is the retrieved evidence bundle; populated only at
	// Provenance >= ProvenanceContext.
	Context string
	// Queries is the per-query execution trace; populated only at
	// ProvenanceFull.
	Queries []string

	// Timings is the per-stage latency breakdown.
	Timings Timings
}

// AskResult is one AskBatch outcome: the response, or the item's error.
type AskResult struct {
	Response Response
	Err      error
}
