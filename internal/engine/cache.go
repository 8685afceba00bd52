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
// The shard holds every state a key can be in — resident (entries,
// possibly marked prefetched), in flight (inflight, the single-flight
// table) or absent — under one mutex, as a hardware cache checks its
// tag array and its miss status holding registers in one lookup. claim
// and settle each read or change a key's state in one critical
// section, so no demand ask or prefetch fill can find a key neither
// resident nor in flight while its answer is published.
//
// When the engine's semantic tier is enabled, idx holds one question
// vector per resident entry (same key) — the shard's slice of the
// nearest-neighbor search space. It moves in lockstep with the entry
// map under the same mutex: an insert that lands adds the vector, an
// eviction (any policy) or replacement removes or replaces it, and a
// Victim bypass adds nothing. idx.Len() == len(entries) is an
// invariant the semantic test suite pins for every registered policy.
//
// The hit/miss counters are deliberately not advanced by touch/claim:
// cachedAsk (with settle counting a demand leader's miss) records
// exactly one hit or miss per answered ask based on
// how it was ultimately served (direct hit, semantic serve, coalesced
// single-flight follower, or a pipeline run), so the totals track
// answered cache-routed asks — not raw map probes, which would
// double-count single-flight retries. Hits are split by serving tier
// (exact vs semantic); a shard's semantic counter advances on the
// shard the *query* hashed to, matching Response.Shard, even when the
// served neighbor resides elsewhere.
type answerCache struct {
	mu       sync.Mutex
	cap      int
	pol      policy.CachePolicy
	entries  map[string]cacheEntry
	inflight map[string]*inflightCall
	idx      *embed.Index // nil unless the semantic tier is enabled

	exactHits    atomic.Uint64
	semanticHits atomic.Uint64
	misses       atomic.Uint64
	bypasses     atomic.Uint64
	covered      atomic.Uint64
	wasted       atomic.Uint64
}

// cacheEntry is one resident answer. prefetched marks an entry a
// speculative prefetch fill inserted that has not yet served a demand
// ask: the mark is cleared — and covered advanced — on the entry's
// first demand serve; an entry evicted or overwritten with the mark
// still set advances wasted instead.
type cacheEntry struct {
	ans        Answer
	prefetched bool
}

// inflightCall is one in-progress uncached answer, registered in its
// shard's inflight table by claim and retired by settle. Followers wait
// on done and then share ans, or see err when the leader's context
// aborted the pipeline (an aborted call is never published).
type inflightCall struct {
	done chan struct{}
	ans  Answer
	err  error
	// prefetch marks a call led by the background prefetcher rather
	// than a demand ask: demand followers coalescing onto it were
	// served by speculative work, so they claim the entry's covered
	// credit (see answerCache.coverFlight).
	prefetch bool
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
		cap:      capacity,
		pol:      pol,
		entries:  map[string]cacheEntry{},
		inflight: map[string]*inflightCall{},
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
	ent, ok := c.entries[string(key)]
	if !ok {
		return Answer{}, false
	}
	if ent.prefetched {
		// The conversion allocates, but at most once per prefetched
		// entry ever, so the steady-state hit path stays allocation-free.
		c.cover(string(key), ent)
	}
	c.pol.OnHitBytes(key)
	return ent.ans, true
}

// claim returns the resident answer (call nil), the in-flight call to
// follow (lead false), or a new call the caller now leads (lead true)
// and must settle. A resident answer leaves recency alone — a demand
// ask has already touched once, and a fill must not perturb the policy
// — but a demand claim takes a prefetched entry's covered credit.
func (c *answerCache) claim(key string, prefetch bool) (ans Answer, call *inflightCall, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[key]; ok {
		if ent.prefetched && !prefetch {
			c.cover(key, ent)
		}
		return ent.ans, nil, false
	}
	if call, ok := c.inflight[key]; ok {
		return Answer{}, call, false
	}
	call = &inflightCall{done: make(chan struct{}), prefetch: prefetch}
	c.inflight[key] = call
	return Answer{}, call, true
}

// settle publishes a led call's answer (put and a counted miss for a
// demand call, putPrefetch for a fill) and retires the call in one
// critical section, then wakes the followers. An aborted pipeline
// (err != nil) is never published. vec is as for put.
func (c *answerCache) settle(key string, call *inflightCall, ans Answer, err error, vec *embed.Vector) {
	call.ans, call.err = ans, err
	c.mu.Lock()
	if err == nil {
		if call.prefetch {
			c.putPrefetch(key, ans, vec)
		} else {
			c.put(key, ans, vec)
			c.misses.Add(1)
		}
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(call.done)
}

// put stores the answer under key and reports whether key is resident
// afterward. Caller holds c.mu. On a full cache the policy picks the
// victim; a policy may instead decline the insertion entirely (bypass),
// leaving the resident set untouched — sound because answers are
// recomputable pure functions of the key. vec is the question's
// embedding for the semantic index; it must be non-nil whenever the
// shard carries an index (cachedAsk computes it on every miss when the
// tier is enabled) and is ignored otherwise. An evicted victim leaves
// the index in the same critical section it leaves the entry map, for
// every policy — the lockstep the semantic tier's soundness rests on
// (a dangling vector would serve an answer that no longer exists).
func (c *answerCache) put(key string, ans Answer, vec *embed.Vector) bool {
	if old, ok := c.entries[key]; ok {
		c.entries[key] = cacheEntry{ans: ans}
		c.pol.OnHit(key) // refresh, exactly as the old MoveToFront did
		// Overwriting a still-unserved prefetched entry (a cache import
		// of a key a fill published): the speculative work served nobody.
		if old.prefetched {
			c.wasted.Add(1)
		}
		return true // idx already carries this key's vector
	}
	if len(c.entries) >= c.cap {
		victim, bypass := c.pol.Victim(key)
		if bypass {
			c.bypasses.Add(1)
			return false
		}
		c.evict(victim)
	}
	c.entries[key] = cacheEntry{ans: ans}
	c.pol.OnInsert(key)
	if c.idx != nil && vec != nil {
		c.idx.AddVec(key, *vec)
	}
	return true
}

// evict removes victim from the entry map and the semantic index,
// counting a never-served prefetch as wasted. Caller holds c.mu; the
// policy has already stopped tracking the victim.
func (c *answerCache) evict(victim string) {
	if c.entries[victim].prefetched {
		c.wasted.Add(1)
	}
	delete(c.entries, victim)
	if c.idx != nil {
		c.idx.Remove(victim)
	}
}

// putPrefetch stores a speculative prefetch fill under key, marked
// prefetched so its first demand serve counts covered. Caller holds
// c.mu. Unlike put it never refreshes an existing entry, and routes the
// victim choice and insertion through the policy's prefetch hooks
// (VictimForPrefetch/OnInsertPrefetch — the native LRU inserts at the
// recency midpoint; the simulator adapter marks
// sim.AccessInfo.Prefetch). A fill that does not land — the key became
// resident while it computed, or the policy bypassed it — served
// nobody and counts wasted, not bypasses: bypasses tracks declined
// demand insertions.
func (c *answerCache) putPrefetch(key string, ans Answer, vec *embed.Vector) {
	if _, ok := c.entries[key]; ok {
		c.wasted.Add(1)
		return
	}
	if len(c.entries) >= c.cap {
		victim, bypass := c.pol.VictimForPrefetch(key)
		if bypass {
			c.wasted.Add(1)
			return
		}
		c.evict(victim)
	}
	c.entries[key] = cacheEntry{ans: ans, prefetched: true}
	c.pol.OnInsertPrefetch(key)
	if c.idx != nil && vec != nil {
		c.idx.AddVec(key, *vec)
	}
}

// cover clears ent's prefetched mark on its first demand serve and
// counts the covered miss. Caller holds c.mu and has checked the mark.
func (c *answerCache) cover(key string, ent cacheEntry) {
	ent.prefetched = false
	c.entries[key] = ent
	c.covered.Add(1)
}

// coverFlight records that a demand ask was served by coalescing onto
// a prefetch fill's call for key: the entry's covered credit is claimed
// exactly once, here or at its first demand serve, whichever runs
// first.
func (c *answerCache) coverFlight(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[key]; ok && ent.prefetched {
		c.cover(key, ent)
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
	return m.ID, c.entries[m.ID].ans, m.Score, true
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
