package engine

import (
	"container/list"
	"runtime"
	"sync"
)

// Sharding design note
//
// The engine's two mutable tables — the session map and the answer
// cache — were once protected by single global mutexes, which
// serialized every ask no matter how many cores served traffic. They
// are now each split into Config.Shards hash-keyed shards with one lock
// per shard:
//
//   - a cache key (retriever\x00model\x00question) always hashes to the
//     same cache shard, which holds every state the key can be in
//     (resident, prefetched, in flight or absent) under its one lock.
//     Whether a lookup hits, and which single-flight leader a
//     concurrent miss joins, is therefore independent of the shard
//     count: hit/miss totals for any fixed ask sequence are identical
//     at 1 shard and at N;
//   - a session ID always hashes to the same session shard, so one
//     session's turns stay totally ordered under that shard's lock
//     exactly as before;
//   - Eviction and turn compaction run per shard over that shard's
//     slice of the global budget (shardCount + shardBudget), so the
//     semantics are the PR 2 semantics applied shard-locally. A budget
//     smaller than the configured shard count clamps that table's
//     effective shard count instead of rounding budgets up, so the
//     documented global bound is exact. The one observable difference:
//     recency competition is per shard, so which session (or cached
//     answer) is evicted under pressure depends on the hash layout.
//     Tests that pin exact global eviction order set Shards: 1.
//
// Answers themselves never touch shard state (they are pure functions
// of retriever, model, and question — see the package comment), so
// sharding cannot change a single byte of any answer.

// DefaultShards is the shard count when Config.Shards is zero: one
// shard per schedulable CPU, so lock contention scales out with the
// hardware the same way GOMAXPROCS does.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// shardIndex maps a key to a shard by FNV-1a (inlined to avoid a
// hash.Hash allocation on the ask hot path).
func shardIndex(key string, n int) int {
	return shardIndexHash(fnv32a(key), n)
}

// fnv32a is the FNV-1a hash of key, generic over the two spellings a
// key is held in (the ask path's pooled scratch bytes and a
// materialized string), so the ask path hashes its scratch bytes
// without a conversion.
func fnv32a[T string | []byte](key T) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// shardIndexHash maps an fnv32a hash to a shard index.
func shardIndexHash(h uint32, n int) int {
	return int(h % uint32(n))
}

// shardCount clamps the shard count for a table with a positive entry
// budget of total: a budget smaller than the requested shard count
// would leave shards with zero entries (or, as the pre-fix rounding
// did, silently overshoot the global bound by giving every shard one),
// so the table runs with total shards instead — each holding exactly
// one entry. Non-positive totals (unlimited / disabled) keep the
// requested count.
func shardCount(total, n int) int {
	if total > 0 && n > total {
		return total
	}
	return n
}

// shardBudget divides a global entry budget across n shards, spreading
// the remainder over the leading shards. Callers clamp n with
// shardCount first, so for a positive total every shard receives at
// least one entry and the budgets sum exactly to total — the global
// bound is never overshot. A non-positive total (unlimited / disabled)
// is passed through to every shard unchanged.
func shardBudget(total, n int) []int {
	out := make([]int, n)
	if total <= 0 {
		for i := range out {
			out[i] = total
		}
		return out
	}
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// sessionShard owns one hash slice of the session table: the sessions
// that map here, their recency list (front = most recently asked), and
// this shard's share of the MaxSessions budget.
type sessionShard struct {
	mu        sync.Mutex
	sessions  map[string]*list.Element // of *session
	byRecency *list.List
	max       int // <= 0: unlimited
}

func newSessionShard(max int) *sessionShard {
	return &sessionShard{
		sessions:  map[string]*list.Element{},
		byRecency: list.New(),
		max:       max,
	}
}
