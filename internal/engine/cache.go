package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cachemind/internal/embed"
	"cachemind/internal/policy"
)

// lruList is the native LRU policy.CachePolicy: a recency list over
// the resident keys, exactly the pre-bridge answer-cache semantics.
// It is the Config.CachePolicy default, kept native (rather than
// routed through the simulator adapter) so the default ask path
// carries no extra per-access state.
type lruList struct {
	ll *list.List // front = most recently used
	at map[string]*list.Element
}

func newLRUList() *lruList {
	return &lruList{ll: list.New(), at: map[string]*list.Element{}}
}

func (*lruList) Name() string { return "lru" }

func (p *lruList) OnHit(key string) {
	if el, ok := p.at[key]; ok {
		p.ll.MoveToFront(el)
	}
}

// OnHitBytes is OnHit for a key still in its pooled scratch bytes —
// the map probe compiles to a zero-copy lookup, so the default
// policy's hit path allocates nothing.
func (p *lruList) OnHitBytes(key []byte) {
	if el, ok := p.at[string(key)]; ok {
		p.ll.MoveToFront(el)
	}
}

func (p *lruList) OnInsert(key string) {
	p.at[key] = p.ll.PushFront(key)
}

// OnInsertPrefetch inserts key at the midpoint of the recency list —
// the probationary position of a segmented LRU: a speculative prefetch
// fill never displaces the proven-hot front half, but survives about
// half a capacity's worth of demand churn, long enough to reach the
// session turn it was predicted for, before aging out un-promoted. The
// midpoint walk is O(len/2), paid only on background prefetch fills;
// the demand path never runs it.
func (p *lruList) OnInsertPrefetch(key string) {
	el := p.ll.Back()
	for i := p.ll.Len() / 2; i > 0 && el != nil; i-- {
		el = el.Prev()
	}
	if el == nil {
		p.at[key] = p.ll.PushFront(key)
		return
	}
	p.at[key] = p.ll.InsertAfter(key, el)
}

func (p *lruList) Victim(string) (string, bool) {
	oldest := p.ll.Back()
	if oldest == nil {
		// Unreachable under the contract (Victim runs only on a full
		// cache); bypassing is the safe refusal.
		return "", true
	}
	key := p.ll.Remove(oldest).(string)
	delete(p.at, key)
	return key, false
}

// VictimForPrefetch evicts for a speculative fill exactly as for a
// demand fill: the LRU tail is the probationary segment's oldest entry
// either way, and the probation itself is OnInsertPrefetch's midpoint
// insertion — the victim side needs no extra caution.
func (p *lruList) VictimForPrefetch(incoming string) (string, bool) {
	return p.Victim(incoming)
}

// answerCache is one shard of the bounded answer cache: a capacity-
// bounded key→Answer map whose residency is ordered by a
// policy.CachePolicy. Keys are the full (retriever, model, question)
// triple rendered by cacheKey, so an engine swap of retriever or
// backend can never serve a stale entry even if a cache were shared.
// All methods are safe for concurrent use.
//
// When the engine's semantic tier is enabled, idx holds one question
// vector per resident entry (same key) — the shard's slice of the
// nearest-neighbor search space. It moves in lockstep with the entry
// map under the same mutex: an insert that lands adds the vector, an
// eviction (any policy) or replacement removes or replaces it, and a
// Victim bypass adds nothing. idx.Len() == len(entries) is an
// invariant the semantic test suite pins for every registered policy.
//
// The hit/miss counters are deliberately not advanced by touch/peek:
// cachedAsk records exactly one hit or miss per answered ask based on
// how it was ultimately served (direct hit, semantic serve, coalesced
// single-flight follower, or a pipeline run), so the totals track
// answered cache-routed asks — not raw map probes, which would
// double-count single-flight retries. Hits are split by serving tier
// (exact vs semantic); a shard's semantic counter advances on the
// shard the *query* hashed to, matching Response.Shard, even when the
// served neighbor resides elsewhere.
type answerCache struct {
	mu      sync.Mutex
	cap     int
	pol     policy.CachePolicy
	entries map[string]Answer
	idx     *embed.Index // nil unless the semantic tier is enabled

	// prefetched marks resident entries that were inserted by a
	// speculative prefetch fill and have not yet served a demand ask
	// (guarded by mu; nil until the first prefetch insert, so engines
	// without prefetching pay nothing). The bit is cleared — and covered
	// advanced — on the entry's first demand serve; an entry evicted or
	// bypassed with the bit still set advances wasted instead.
	prefetched map[string]struct{}

	exactHits    atomic.Uint64
	semanticHits atomic.Uint64
	misses       atomic.Uint64
	bypasses     atomic.Uint64
	covered      atomic.Uint64
	wasted       atomic.Uint64
}

// newAnswerCache creates a cache bounded to capacity entries (minimum
// 1) whose eviction order is decided by pol. With semantic true the
// shard also maintains the question-vector index the semantic tier
// searches.
func newAnswerCache(capacity int, pol policy.CachePolicy, semantic bool) *answerCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &answerCache{
		cap:     capacity,
		pol:     pol,
		entries: map[string]Answer{},
	}
	if semantic {
		c.idx = embed.NewIndex()
	}
	return c
}

// touch returns the cached answer for the key bytes and refreshes its
// recency/priority state via the policy. The key arrives as the ask's
// pooled scratch bytes: the entry probe is a zero-copy map lookup, and
// the policy observes the hit through OnHitBytes — the default LRU
// without a string materialization — so an exact hit allocates
// nothing. It does not count hits or misses — see the answerCache
// comment.
func (c *answerCache) touch(key []byte) (Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ans, ok := c.entries[string(key)]
	if !ok {
		return Answer{}, false
	}
	if c.prefetched != nil {
		// First demand touch of a prefetched entry: the prefetch covered
		// a would-be miss. The membership probe is a zero-copy lookup;
		// the delete below materializes a string, but runs at most once
		// per prefetched entry ever, so the steady-state hit path stays
		// allocation-free.
		if _, pf := c.prefetched[string(key)]; pf {
			delete(c.prefetched, string(key))
			c.covered.Add(1)
		}
	}
	c.pol.OnHitBytes(key)
	return ans, true
}

// peek returns the cached answer without touching recency — used when
// a single-flight retry re-checks the cache after a leader abort, so
// one Ask never perturbs the policy state more than once.
func (c *answerCache) peek(key string) (Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ans, ok := c.entries[key]
	return ans, ok
}

// put stores the answer under key. On a full cache the policy picks
// the victim; a policy may instead decline the insertion entirely
// (bypass), leaving the resident set untouched — sound because answers
// are recomputable pure functions of the key. vec is the question's
// embedding for the semantic index; it must be non-nil whenever the
// shard carries an index (cachedAsk computes it on every miss when the
// tier is enabled) and is ignored otherwise. An evicted victim leaves
// the index in the same critical section it leaves the entry map, for
// every policy — the lockstep the semantic tier's soundness rests on
// (a dangling vector would serve an answer that no longer exists).
func (c *answerCache) put(key string, ans Answer, vec *embed.Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = ans
		c.pol.OnHit(key) // refresh, exactly as the old MoveToFront did
		// A demand overwrite of a still-unserved prefetched entry (a
		// demand leader raced the fill's publish): the demand ask ran
		// its own pipeline, so the speculative work served nobody.
		if _, pf := c.prefetched[key]; pf {
			delete(c.prefetched, key)
			c.wasted.Add(1)
		}
		return // idx already carries this key's vector
	}
	if len(c.entries) >= c.cap {
		victim, bypass := c.pol.Victim(key)
		if bypass {
			c.bypasses.Add(1)
			return
		}
		c.evict(victim)
	}
	c.entries[key] = ans
	c.pol.OnInsert(key)
	if c.idx != nil && vec != nil {
		c.idx.AddVec(key, *vec)
	}
}

// evict removes victim from the entry map, the semantic index and the
// prefetched set (counting a never-served prefetch as wasted). Caller
// holds c.mu; the policy has already stopped tracking the victim.
func (c *answerCache) evict(victim string) {
	delete(c.entries, victim)
	if c.idx != nil {
		c.idx.Remove(victim)
	}
	if _, pf := c.prefetched[victim]; pf {
		delete(c.prefetched, victim)
		c.wasted.Add(1)
	}
}

// putPrefetch stores a speculative prefetch fill under key, reporting
// whether it landed. Unlike put it never refreshes an existing entry
// (a resident key means the fill was redundant), routes the victim
// choice and insertion through the policy's prefetch hooks
// (VictimForPrefetch/OnInsertPrefetch — the native LRU inserts at the
// recency midpoint; the simulator adapter marks
// sim.AccessInfo.Prefetch), and marks the entry in the prefetched set
// so its first demand serve counts covered. A policy bypass counts
// wasted, not bypasses: bypasses tracks declined demand insertions.
func (c *answerCache) putPrefetch(key string, ans Answer, vec *embed.Vector) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	if len(c.entries) >= c.cap {
		victim, bypass := c.pol.VictimForPrefetch(key)
		if bypass {
			c.wasted.Add(1)
			return true // counted here; the fill does not double-count
		}
		c.evict(victim)
	}
	c.entries[key] = ans
	c.pol.OnInsertPrefetch(key)
	if c.prefetched == nil {
		c.prefetched = map[string]struct{}{}
	}
	c.prefetched[key] = struct{}{}
	if c.idx != nil && vec != nil {
		c.idx.AddVec(key, *vec)
	}
	return true
}

// coverFlight records that a demand ask was served by coalescing onto
// an in-flight (or just-published) prefetch fill for key: the entry's
// covered credit is claimed exactly once, here or at its first demand
// touch, whichever runs first.
func (c *answerCache) coverFlight(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, pf := c.prefetched[key]; pf {
		delete(c.prefetched, key)
		c.covered.Add(1)
	}
}

// bestSimilar returns this shard's nearest cached neighbor of qv at or
// above min, with the stored answer snapshotted under the shard lock —
// so the (key, answer) pair is consistent even if the entry is evicted
// a microsecond later. Ties break by key (via Index.BestVec), keeping
// the winner independent of insertion order.
func (c *answerCache) bestSimilar(qv embed.Vector, min float64) (key string, ans Answer, score float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx == nil {
		return "", Answer{}, 0, false
	}
	m, found := c.idx.BestVec(qv)
	if !found || m.Score < min {
		return "", Answer{}, 0, false
	}
	// Lockstep invariant: every indexed key is resident.
	return m.ID, c.entries[m.ID], m.Score, true
}

// refresh bumps key's recency/priority state if it is still resident —
// the semantic tier's OnHit on the served neighbor. A concurrent
// eviction between the similarity scan and this call is tolerated (the
// answer bytes were snapshotted under the scan's lock); refreshing a
// ghost would violate the policy contract, so absence is a no-op.
func (c *answerCache) refresh(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.pol.OnHit(key)
	}
}

// counters returns (exact hits, semantic hits, misses, bypasses, live
// entries).
func (c *answerCache) counters() (exact, semantic, misses, bypasses uint64, entries int) {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return c.exactHits.Load(), c.semanticHits.Load(), c.misses.Load(), c.bypasses.Load(), n
}

// prefetchCounters returns (covered, wasted) — the demand-side fate of
// this shard's prefetched entries.
func (c *answerCache) prefetchCounters() (covered, wasted uint64) {
	return c.covered.Load(), c.wasted.Load()
}
