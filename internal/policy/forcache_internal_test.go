package policy

import (
	"fmt"
	"strings"
	"testing"

	"cachemind/internal/sim"
)

// legacyPC is the pre-intern PC derivation: hash the (retriever, model)
// prefix, then chain the question's leading word — reproduced here so
// the memoized path is pinned against it bit-for-bit.
func legacyPC(key string) uint64 {
	question := key
	if i := strings.LastIndexByte(key, 0); i >= 0 {
		question = key[i+1:]
	}
	head := question
	if j := strings.IndexByte(question, ' '); j > 0 {
		head = question[:j]
	}
	return fnv64a(fnv64a(fnvOffset64, key[:len(key)-len(question)]), head)
}

// TestForCacheShapeIntern: the shape-intern memo must change the cost
// of the PC feature, never its value — every key family (engine-shaped
// keys, separator-free keys, single-word questions, empty questions)
// hashes to exactly the legacy chained value, repeated shapes collapse
// to one memo entry, and the memo respects its cap.
func TestForCacheShapeIntern(t *testing.T) {
	pol, err := ForCache("lru", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := pol.(*cacheAdapter)

	keys := []string{
		"ranger\x00gpt-4o\x00What is the miss rate in mcf under lru?",
		"ranger\x00gpt-4o\x00What is the miss rate in lbm under lru?",
		"ranger\x00gpt-4o\x00Which policy wins?",
		"sieve\x00claude\x00What is the miss rate in mcf under lru?",
		"no-separators-at-all",
		"ranger\x00gpt-4o\x00single-word",
		"ranger\x00gpt-4o\x00",
		"ranger\x00gpt-4o\x00 leading-space question",
	}
	for _, key := range keys {
		if got, want := a.pcFor(key), legacyPC(key); got != want {
			t.Errorf("pcFor(%q) = %#x, want legacy %#x", key, got, want)
		}
	}
	// The first two keys share a shape (same prefix, same leading word
	// "What"); the memo must carry one entry for them, not two.
	shape := "ranger\x00gpt-4o\x00What"
	if _, ok := a.shapes[shape]; !ok {
		t.Errorf("shared shape %q not interned", shape)
	}
	if got, want := a.pcFor(keys[0]), a.pcFor(keys[1]); got != want {
		t.Errorf("same-shape keys disagree on PC: %#x vs %#x", got, want)
	}

	// The cap bounds the memo: past it, features still compute correctly
	// but nothing new is stored.
	for i := 0; len(a.shapes) < shapeMemoCap; i++ {
		a.pcFor(fmt.Sprintf("r\x00m\x00word%d rest", i))
	}
	overflow := "r\x00m\x00overflow rest"
	if got, want := a.pcFor(overflow), legacyPC(overflow); got != want {
		t.Errorf("post-cap pcFor(%q) = %#x, want %#x", overflow, got, want)
	}
	if len(a.shapes) != shapeMemoCap {
		t.Errorf("memo grew past its cap: %d > %d", len(a.shapes), shapeMemoCap)
	}
}

// prefetchRecorder wraps a simulator policy and records, per call,
// the hook and the AccessInfo.Prefetch flag it was handed.
type prefetchRecorder struct {
	sim.ReplacementPolicy
	calls []string
}

func (r *prefetchRecorder) record(hook string, info sim.AccessInfo) {
	r.calls = append(r.calls, fmt.Sprintf("%s:%v", hook, info.Prefetch))
}

func (r *prefetchRecorder) Victim(info sim.AccessInfo, lines []sim.Line) int {
	r.record("victim", info)
	return r.ReplacementPolicy.Victim(info, lines)
}

func (r *prefetchRecorder) OnHit(info sim.AccessInfo, way int, lines []sim.Line) {
	r.record("hit", info)
	r.ReplacementPolicy.OnHit(info, way, lines)
}

func (r *prefetchRecorder) OnFill(info sim.AccessInfo, way int, lines []sim.Line) {
	r.record("fill", info)
	r.ReplacementPolicy.OnFill(info, way, lines)
}

// TestForCachePrefetchFlag: the adapter marks AccessInfo.Prefetch on
// exactly the accesses VictimForPrefetch and OnInsertPrefetch drive,
// and on no demand access before or after them.
func TestForCachePrefetchFlag(t *testing.T) {
	pol, err := ForCache("srrip", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := pol.(*cacheAdapter)
	rec := &prefetchRecorder{ReplacementPolicy: a.inner}
	a.inner = rec

	pol.OnInsert("a")
	pol.OnInsertPrefetch("b") // free way: no victim needed
	pol.OnHit("a")
	pol.OnHitBytes([]byte("b"))
	if _, bypass := pol.VictimForPrefetch("c"); bypass {
		t.Fatal("srrip bypassed a prefetch fill")
	}
	pol.OnInsertPrefetch("c")
	if _, bypass := pol.Victim("d"); bypass {
		t.Fatal("srrip bypassed a demand fill")
	}
	pol.OnInsert("d")

	want := "[fill:false fill:true hit:false hit:false victim:true fill:true victim:false fill:false]"
	if got := fmt.Sprint(rec.calls); got != want {
		t.Fatalf("hook:prefetch sequence\n got  %s\n want %s", got, want)
	}
}
