package engine

import (
	"fmt"
	"testing"

	"cachemind/internal/embed"
	"cachemind/internal/policy"
)

// newLRUCache is the test shorthand for a cache under the default
// native LRU policy.
func newLRUCache(capacity int) *answerCache {
	return newAnswerCache(capacity, newLRUList(), false)
}

// lockedPut is the test shorthand for a demand insert: put under the
// shard lock it requires.
func lockedPut(c *answerCache, key string, ans Answer, vec *embed.Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, ans, vec)
}

func TestAnswerCacheLRU(t *testing.T) {
	c := newLRUCache(2)
	lockedPut(c, "a", Answer{Text: "A"}, nil)
	lockedPut(c, "b", Answer{Text: "B"}, nil)

	if ans, ok := c.touch([]byte("a")); !ok || ans.Text != "A" {
		t.Fatalf("touch a = %+v, %v", ans, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	lockedPut(c, "c", Answer{Text: "C"}, nil)
	if _, ok := c.touch([]byte("b")); ok {
		t.Fatal("b survived eviction at capacity 2")
	}
	if _, ok := c.touch([]byte("a")); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.touch([]byte("c")); !ok {
		t.Fatal("c missing after insert")
	}
	if _, _, _, _, entries := c.counters(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
}

func TestAnswerCacheUpdateExisting(t *testing.T) {
	c := newLRUCache(2)
	lockedPut(c, "a", Answer{Text: "old"}, nil)
	lockedPut(c, "a", Answer{Text: "new"}, nil)
	if ans, ok := c.touch([]byte("a")); !ok || ans.Text != "new" {
		t.Fatalf("touch a = %+v, %v; want updated entry", ans, ok)
	}
	if _, _, _, _, entries := c.counters(); entries != 1 {
		t.Fatalf("entries = %d, want 1 (no duplicate on update)", entries)
	}
}

func TestAnswerCacheMinimumCapacity(t *testing.T) {
	c := newLRUCache(0) // clamps to 1
	lockedPut(c, "a", Answer{Text: "A"}, nil)
	lockedPut(c, "b", Answer{Text: "B"}, nil)
	if _, _, _, _, entries := c.counters(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if _, ok := c.touch([]byte("b")); !ok {
		t.Fatal("latest entry missing at capacity 1")
	}
}

// TestAnswerCachePeekLeavesRecencyAlone: claiming a resident key must
// not perturb the policy's eviction order — a demand ask reaches claim
// only after its own touch, and a prefetch fill must not refresh an
// entry it skips.
func TestAnswerCachePeekLeavesRecencyAlone(t *testing.T) {
	c := newLRUCache(2)
	lockedPut(c, "a", Answer{Text: "A"}, nil)
	lockedPut(c, "b", Answer{Text: "B"}, nil)
	for _, prefetch := range []bool{false, true} {
		if ans, call, _ := c.claim("a", prefetch); call != nil || ans.Text != "A" {
			t.Fatalf("claim a (prefetch %v) = %+v, call %v; want the resident answer", prefetch, ans, call)
		}
	}
	// "a" is still least recently used (claim did not bump it), so "c"
	// evicts it and a claim of "a" now leads a new call.
	lockedPut(c, "c", Answer{Text: "C"}, nil)
	if _, _, lead := c.claim("a", false); !lead {
		t.Fatal("claim bumped recency: a survived eviction")
	}
	if _, call, _ := c.claim("b", false); call != nil {
		t.Fatal("b evicted although a was older")
	}
}

// TestAnswerCacheBypassingPolicy: a policy that declines insertion
// leaves the resident set untouched and counts a bypass.
func TestAnswerCacheBypassingPolicy(t *testing.T) {
	c := newAnswerCache(1, bypassAllWrap{newLRUList()}, false)
	lockedPut(c, "a", Answer{Text: "A"}, nil)
	lockedPut(c, "b", Answer{Text: "B"}, nil) // full: policy bypasses
	if _, ok := c.touch([]byte("a")); !ok {
		t.Fatal("resident entry lost on a bypassed insert")
	}
	if _, ok := c.touch([]byte("b")); ok {
		t.Fatal("bypassed entry was inserted anyway")
	}
	_, _, _, bypasses, entries := c.counters()
	if bypasses != 1 || entries != 1 {
		t.Fatalf("bypasses/entries = %d/%d, want 1/1", bypasses, entries)
	}
}

// bypassAllWrap delegates bookkeeping to a real policy but refuses
// every eviction, demand and prefetch alike.
type bypassAllWrap struct{ policy.CachePolicy }

func (bypassAllWrap) Name() string                            { return "bypass-all" }
func (bypassAllWrap) Victim(string) (string, bool)            { return "", true }
func (bypassAllWrap) VictimForPrefetch(string) (string, bool) { return "", true }

// TestAnswerCachePrefetchBypass: a policy that refuses a prefetch fill
// on a full cache leaves the resident set untouched and counts the
// fill wasted — bypasses tracks declined demand insertions only.
func TestAnswerCachePrefetchBypass(t *testing.T) {
	c := newAnswerCache(1, bypassAllWrap{newLRUList()}, false)
	lockedPut(c, "a", Answer{Text: "A"}, nil)
	_, call, lead := c.claim("p", true)
	if !lead {
		t.Fatal("prefetch claim of an absent key did not lead")
	}
	c.settle("p", call, Answer{Text: "P"}, nil, nil)
	// Not resident, and the settled call is retired: a new claim leads.
	if _, _, lead := c.claim("p", false); !lead {
		t.Fatal("bypassed prefetch fill was inserted anyway, or its call was not retired")
	}
	if _, call, _ := c.claim("a", false); call != nil {
		t.Fatal("resident entry lost on a bypassed prefetch fill")
	}
	_, _, _, bypasses, entries := c.counters()
	_, wasted := c.prefetchCounters()
	if wasted != 1 || bypasses != 0 || entries != 1 {
		t.Fatalf("wasted/bypasses/entries = %d/%d/%d, want 1/0/1", wasted, bypasses, entries)
	}
}

// TestLRUPrefetchInsertsAtMidpoint: the native LRU's prefetch fill
// lands at the recency midpoint (segmented-LRU probation), so demand
// churn evicts the older half before it and the newer half after it.
func TestLRUPrefetchInsertsAtMidpoint(t *testing.T) {
	p := newLRUList()
	for _, k := range []string{"a", "b", "c", "d"} {
		p.OnInsert(k)
	}
	p.OnInsertPrefetch("pf")
	var order []string
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("n%d", i)
		victim, bypass := p.Victim(key)
		if bypass {
			t.Fatalf("LRU bypassed demand fill %s", key)
		}
		order = append(order, victim)
		p.OnInsert(key)
	}
	if got, want := fmt.Sprint(order), "[a b pf c d]"; got != want {
		t.Fatalf("eviction order %s, want %s", got, want)
	}
}

// TestAnswerCacheIndexLockstepAllPolicies pins the semantic tier's
// soundness invariant for every registered eviction policy: the
// question-vector index always holds exactly one vector per resident
// entry — an eviction, replacement, or bypass leaves both structures
// in agreement under the same critical section. A dangling vector
// would let the semantic tier serve an answer that no longer exists.
func TestAnswerCacheIndexLockstepAllPolicies(t *testing.T) {
	for _, name := range CachePolicies() {
		t.Run(name, func(t *testing.T) {
			pol, err := newEvictionPolicy(name, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := newAnswerCache(4, pol, true)
			check := func(step string) {
				t.Helper()
				c.mu.Lock()
				entries, indexed := len(c.entries), c.idx.Len()
				c.mu.Unlock()
				if entries != indexed {
					t.Fatalf("%s under %s: %d entries but %d indexed vectors", step, name, entries, indexed)
				}
			}
			// Churn far past capacity, with interleaved touches and
			// overwrites, so Victim (and any bypass choice) runs often.
			for i := 0; i < 48; i++ {
				key := fmt.Sprintf("q%d", i)
				v := embed.Embed(key)
				lockedPut(c, key, Answer{Text: key}, &v)
				check("insert " + key)
				if i%3 == 0 {
					c.touch([]byte(fmt.Sprintf("q%d", i/2)))
				}
				if i%7 == 0 {
					lockedPut(c, key, Answer{Text: key + "'"}, &v) // overwrite: no second vector
					check("overwrite " + key)
				}
			}
			_, _, _, bypasses, entries := c.counters()
			if entries > 4 {
				t.Fatalf("%s: %d entries over capacity 4", name, entries)
			}
			t.Logf("%s: %d resident, %d bypasses", name, entries, bypasses)
		})
	}
}
