package engine

import (
	"sort"

	"cachemind/internal/embed"
)

// This file is the engine's snapshot/restore seam — the mechanism
// behind internal/cluster's durable checkpointing and warm handoff.
// Exports walk the live sharded state under the same locks the ask
// path takes (per-shard, then per-session), so a snapshot taken under
// load is a consistent point-in-time view of each session and each
// cache shard, though not a global barrier across them — exactly the
// consistency the use cases need: a checkpoint restores sessions one
// at a time, and a handoff streams them one at a time.
//
// Imports are additive and conservative: they never clobber live local
// state (a session that already has turns wins over an imported copy),
// route every cache insert through answerCache.put so the configured
// eviction policy keeps full authority over residency (a policy may
// decline any import outright), and respect the MaxSessions /
// MaxSessionTurns bounds as if the turns had arrived as asks.

// SessionSnapshot is one session's durable state: its retained turn
// log. Nothing else is serialized — every memory view is derived from
// the log on read, and turn embeddings are recomputed on first recall —
// which keeps the wire format independent of memory-internal
// representation changes.
type SessionSnapshot struct {
	ID    string `json:"id"`
	Turns []Turn `json:"turns"`
}

// CacheEntry is one answer-cache entry's durable state. The entry is
// keyed by question alone: the full cache key is keyPrefix+question,
// and keyPrefix is (retriever, model) — state of the importing engine,
// not of the snapshot. An entry restored into an engine with a
// different retriever or model is therefore re-keyed to that engine's
// namespace... which would serve wrong answers, so ImportCache guards
// on the exporting engine's key prefix instead: Scope carries it, and
// entries whose Scope does not match the importer are skipped.
type CacheEntry struct {
	// Scope is the exporting engine's (retriever, model) key prefix.
	Scope string `json:"scope"`
	// Question is the cached question text (the key minus the scope).
	Question string `json:"question"`
	// Answer is the stored answer, byte-identical on restore.
	Answer Answer `json:"answer"`
}

// Scope returns this engine's cache-key scope — the (retriever, model)
// prefix its CacheEntry exports carry.
func (e *Engine) Scope() string { return e.keyPrefix }

// ExportSessions snapshots every live session's turn log, sorted by
// session ID. Each log is copied under its session's lock; the result
// set is the sessions listed at the scan and still live when copied.
func (e *Engine) ExportSessions() []SessionSnapshot {
	var out []SessionSnapshot
	for _, id := range e.SessionIDs() {
		if turns, ok := e.SessionTurns(id); ok {
			out = append(out, SessionSnapshot{ID: id, Turns: turns})
		}
	}
	return out
}

// ImportSessions restores snapshotted sessions, returning how many
// were imported. A session that already exists locally with any
// recorded turns is skipped — live state wins over a snapshot — so
// importing is idempotent and a restart-restore can never roll back
// turns recorded after the checkpoint. Imported turns are appended as
// recorded asks are, then clamped to the engine's MaxSessionTurns bound
// (most recent turns win); session creation goes through the normal
// MaxSessions admission, so a snapshot larger than the budget evicts
// by recency like any other session flood.
func (e *Engine) ImportSessions(snaps []SessionSnapshot) int {
	imported := 0
	for _, snap := range snaps {
		if snap.ID == "" || len(snap.Turns) == 0 {
			continue
		}
		s := e.session(snap.ID)
		s.mu.Lock()
		if s.conv.Len() > 0 {
			s.mu.Unlock()
			continue
		}
		for _, t := range snap.Turns {
			e.appendTurn(s.conv, t.Question, t.Answer)
		}
		s.conv.Keep(e.maxTurns)
		s.mu.Unlock()
		imported++
	}
	return imported
}

// DropSession removes the session outright — the losing side of a
// warm handoff, after the new owner confirmed the import. Reports
// whether the session existed. Dropped sessions do not count as
// evictions (SessionsEvicted tracks the MaxSessions bound).
func (e *Engine) DropSession(id string) bool {
	sh := e.sessionShards[shardIndex(id, len(e.sessionShards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.sessions[id]
	if !ok {
		return false
	}
	sh.byRecency.Remove(el)
	delete(sh.sessions, id)
	return true
}

// ExportCache snapshots every resident answer-cache entry, sorted by
// question. Nil when caching is disabled. Each shard is copied under
// its own lock; answers are immutable once published, so the copies
// share the answer values safely.
func (e *Engine) ExportCache() []CacheEntry {
	if e.caches == nil {
		return nil
	}
	var out []CacheEntry
	for _, c := range e.caches {
		c.mu.Lock()
		for key, ent := range c.entries {
			out = append(out, CacheEntry{
				Scope:    e.keyPrefix,
				Question: key[len(e.keyPrefix):],
				Answer:   ent.ans,
			})
		}
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Question < out[j].Question })
	return out
}

// ImportCache restores exported cache entries, returning how many are
// resident afterward. Entries from a different scope (retriever/model)
// are skipped — their answers belong to a different key namespace.
// Each insert goes through the shard's eviction policy exactly like a
// demand fill (the policy may evict for it or decline it), and when
// the semantic tier is live the question is re-embedded so the vector
// index stays in lockstep with the imported entries. Existing entries
// are refreshed, not clobbered — answers are pure functions of the
// key, so a resident entry already holds identical bytes.
func (e *Engine) ImportCache(entries []CacheEntry) int {
	if e.caches == nil {
		return 0
	}
	imported := 0
	for _, ent := range entries {
		if ent.Scope != e.keyPrefix || ent.Question == "" {
			continue
		}
		key := e.keyPrefix + ent.Question
		var vec *embed.Vector
		if e.semThreshold > 0 {
			v := embed.Embed(ent.Question)
			vec = &v
		}
		c := e.caches[shardIndex(key, e.ncacheShards)]
		c.mu.Lock()
		if c.put(key, ent.Answer, vec) {
			imported++
		}
		c.mu.Unlock()
	}
	return imported
}
