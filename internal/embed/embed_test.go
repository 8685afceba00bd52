package embed

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmbedDeterministicAndNormalized(t *testing.T) {
	a := Embed("What is the miss rate for PC 0x4037ba?")
	b := Embed("What is the miss rate for PC 0x4037ba?")
	if a != b {
		t.Error("embedding not deterministic")
	}
	var ss float64
	for _, x := range a {
		ss += float64(x) * float64(x)
	}
	if math.Abs(ss-1) > 1e-5 {
		t.Errorf("embedding not normalized: |v|^2 = %v", ss)
	}
}

func TestEmbedCaseInsensitive(t *testing.T) {
	if Embed("PARROT policy") != Embed("parrot POLICY") {
		t.Error("embedding should be case-insensitive")
	}
}

func TestCosineSelfSimilarity(t *testing.T) {
	v := Embed("lbm workload under LRU")
	if got := Cosine(v, v); math.Abs(got-1) > 1e-5 {
		t.Errorf("self-cosine = %v", got)
	}
}

func TestRelatedTextMoreSimilar(t *testing.T) {
	q := Embed("miss rate for the mcf workload with PARROT")
	related := Embed("mcf workload PARROT replacement policy miss statistics")
	unrelated := Embed("lattice Boltzmann fluid dynamics boundary rows")
	if Cosine(q, related) <= Cosine(q, unrelated) {
		t.Error("related text should score higher than unrelated")
	}
}

// The failure mode the paper's Figure 9 analysis documents: two trace
// rows differing only in hex digits embed nearly identically, so cosine
// similarity cannot discriminate them.
func TestHexRecordsNearIndistinguishable(t *testing.T) {
	a := Embed("program_counter=0x409538 memory_address=0x2bfd401b693 evict=Cache Miss")
	b := Embed("program_counter=0x4090c3 memory_address=0x2bfd401caf2 evict=Cache Miss")
	if sim := Cosine(a, b); sim < 0.7 {
		t.Errorf("near-duplicate records similarity = %.3f, expected high (embedding blindness)", sim)
	}
}

func TestIndexTopK(t *testing.T) {
	ix := NewIndex()
	ix.Add("astar", "astar path finding grid search workload")
	ix.Add("lbm", "lbm lattice boltzmann fluid workload")
	ix.Add("mcf", "mcf network simplex vehicle scheduling workload")
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	top := ix.TopK("fluid dynamics lattice boltzmann", 2)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0].ID != "lbm" {
		t.Errorf("best match = %s, want lbm", top[0].ID)
	}
	if top[0].Score < top[1].Score {
		t.Error("TopK not sorted by score")
	}
	best, ok := ix.Best("network simplex scheduling")
	if !ok || best.ID != "mcf" {
		t.Errorf("Best = %+v", best)
	}
}

func TestIndexReplace(t *testing.T) {
	ix := NewIndex()
	ix.Add("k", "first text about astar")
	ix.Add("k", "now about lattice boltzmann fluid")
	if ix.Len() != 1 {
		t.Fatalf("replace grew index: %d", ix.Len())
	}
	txt, ok := ix.Text("k")
	if !ok || txt != "now about lattice boltzmann fluid" {
		t.Errorf("Text = %q, %v", txt, ok)
	}
	best, _ := ix.Best("fluid boltzmann")
	if best.ID != "k" || best.Score < 0.3 {
		t.Errorf("replaced doc should match new text: %+v", best)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if got := ix.TopK("anything", 5); len(got) != 0 {
		t.Error("empty index TopK should be empty")
	}
	if _, ok := ix.Best("anything"); ok {
		t.Error("empty index Best should fail")
	}
	if _, ok := ix.Text("missing"); ok {
		t.Error("missing Text should fail")
	}
}

func TestTopKClamp(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "alpha")
	if got := ix.TopK("alpha", 10); len(got) != 1 {
		t.Errorf("TopK should clamp to index size, got %d", len(got))
	}
}

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add("astar", "astar path finding grid search workload")
	ix.Add("lbm", "lbm lattice boltzmann fluid workload")
	ix.Add("mcf", "mcf network simplex vehicle scheduling workload")
	if !ix.Remove("lbm") {
		t.Fatal("Remove of a present id reported absent")
	}
	if ix.Remove("lbm") {
		t.Fatal("second Remove of the same id reported present")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len after remove = %d, want 2", ix.Len())
	}
	if _, ok := ix.Text("lbm"); ok {
		t.Error("removed id still has text")
	}
	// The removed document must no longer match; the survivors must.
	if best, ok := ix.Best("fluid dynamics lattice boltzmann"); ok && best.ID == "lbm" {
		t.Errorf("removed document still retrieved: %+v", best)
	}
	if best, ok := ix.Best("network simplex scheduling"); !ok || best.ID != "mcf" {
		t.Errorf("survivor not retrieved after unrelated remove: %+v", best)
	}
	// Removing down to empty, then re-adding, works.
	ix.Remove("astar")
	ix.Remove("mcf")
	if ix.Len() != 0 {
		t.Fatalf("Len after removing all = %d", ix.Len())
	}
	ix.Add("astar", "astar path finding grid search workload")
	if best, ok := ix.Best("astar grid search"); !ok || best.ID != "astar" {
		t.Errorf("re-added document not retrieved: %+v", best)
	}
}

func TestIndexAddVecAndBestVec(t *testing.T) {
	ix := NewIndex()
	ix.AddVec("a", Embed("miss rate in mcf under lru"))
	ix.AddVec("b", Embed("lattice boltzmann fluid dynamics"))
	q := Embed("what is the miss rate in mcf under lru")
	m, ok := ix.BestVec(q)
	if !ok || m.ID != "a" {
		t.Fatalf("BestVec = %+v, %v; want id a", m, ok)
	}
	if m.Score < 0.7 {
		t.Errorf("paraphrase score = %.3f, expected high", m.Score)
	}
	// AddVec on an existing id replaces in place — no slot leak.
	ix.AddVec("a", Embed("completely different text now"))
	if ix.Len() != 2 {
		t.Fatalf("AddVec replace grew index: %d", ix.Len())
	}
	if _, ok := ix.BestVec(q); !ok {
		t.Fatal("BestVec failed on a non-empty index")
	}
	if _, ok := NewIndex().BestVec(q); ok {
		t.Error("empty index BestVec should fail")
	}
}

// Property (the cache-churn invariant): under any interleaving of adds
// and removes the index size equals the live-id count — a slot is never
// leaked by replacement and never survives removal.
func TestIndexChurnNeverLeaksSlots(t *testing.T) {
	ix := NewIndex()
	live := map[string]bool{}
	f := func(ops []uint8) bool {
		for _, op := range ops {
			id := fmt.Sprintf("id%02d", op%23)
			if op%3 == 0 {
				if ix.Remove(id) != live[id] {
					return false
				}
				delete(live, id)
			} else {
				ix.AddVec(id, Embed(id))
				live[id] = true
			}
			if ix.Len() != len(live) {
				return false
			}
		}
		// Every live id must be retrievable by its own embedding.
		for id := range live {
			m, ok := ix.BestVec(Embed(id))
			if !ok || !live[m.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cosine similarity of embeddings is bounded and symmetric.
func TestCosineBoundedProperty(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := Embed(a), Embed(b)
		s1, s2 := Cosine(va, vb), Cosine(vb, va)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1.0001 && s1 <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: TopK ordering is deterministic across repeated queries.
func TestTopKDeterministicProperty(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 50; i++ {
		ix.Add(fmt.Sprintf("doc%02d", i), fmt.Sprintf("document number %d about caches", i))
	}
	f := func(q string) bool {
		a := ix.TopK(q, 5)
		b := ix.TopK(q, 5)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// referenceBestVec is the Cosine-per-vector BestVec the sparse scan
// replaced: the definition the kernel must reproduce bit for bit.
func referenceBestVec(ix *Index, q Vector) (Match, bool) {
	if len(ix.ids) == 0 {
		return Match{}, false
	}
	best := Match{Score: math.Inf(-1)}
	for i, id := range ix.ids {
		score := Cosine(q, ix.vecs[i])
		if score > best.Score || (score == best.Score && id < best.ID) {
			best = Match{ID: id, Score: score}
		}
	}
	return best, true
}

// referenceTopK is the Cosine-per-vector TopK the sparse scan replaced.
func referenceTopK(ix *Index, q Vector, k int) []Match {
	matches := make([]Match, len(ix.ids))
	for i, id := range ix.ids {
		matches[i] = Match{ID: id, Score: Cosine(q, ix.vecs[i])}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].ID < matches[j].ID
	})
	return matches[:min(k, len(matches))]
}

// sameMatch reports whether two matches agree on the id and on every
// bit of the score.
func sameMatch(a, b Match) bool {
	return a.ID == b.ID && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// checkAgainstReference compares every search of ix (BestVec and Scores
// for q, and TopK and Best for each text query) with the Cosine loop.
func checkAgainstReference(t *testing.T, ix *Index, q Vector, texts ...string) {
	t.Helper()
	got, gotOK := ix.BestVec(q)
	want, wantOK := referenceBestVec(ix, q)
	if gotOK != wantOK || !sameMatch(got, want) {
		t.Fatalf("BestVec over %d entries = %+v, %v; Cosine loop = %+v, %v", ix.Len(), got, gotOK, want, wantOK)
	}
	scores := make([]float64, ix.Len())
	Scores(&q, ix.vecs, scores)
	for i, v := range ix.vecs {
		if want := Cosine(q, v); math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Fatalf("Scores[%d] of %d = %v (%#x), Cosine = %v (%#x)",
				i, ix.Len(), scores[i], math.Float64bits(scores[i]), want, math.Float64bits(want))
		}
	}
	for _, text := range texts {
		tq := Embed(text)
		top, ref := ix.TopK(text, ix.Len()), referenceTopK(ix, tq, ix.Len())
		for i := range ref {
			if !sameMatch(top[i], ref[i]) {
				t.Fatalf("TopK(%q)[%d] = %+v, Cosine loop = %+v", text, i, top[i], ref[i])
			}
		}
		best, ok := ix.Best(text)
		if ok != (len(ref) > 0) || ok && !sameMatch(best, ref[0]) {
			t.Fatalf("Best(%q) = %+v, %v; Cosine loop top = %+v", text, best, ok, ref)
		}
	}
}

// adversarialVector draws a finite vector that stresses the scan's
// exactness argument: explicit -0 entries, exact zeros, magnitudes far
// apart (so the summation order shows in the rounding), and, when
// unnormalized, dots past ±1 that exercise the clamp.
func adversarialVector(r *rand.Rand) Vector {
	var v Vector
	density := r.Float64()
	for k := range v {
		switch {
		case r.Float64() > density:
			if r.Intn(2) == 0 {
				v[k] = float32(math.Copysign(0, -1))
			}
		case r.Intn(8) == 0:
			v[k] = float32(math.Ldexp(r.NormFloat64(), r.Intn(60)-30))
		default:
			v[k] = float32(r.NormFloat64())
		}
	}
	if r.Intn(3) > 0 {
		v = normalize(v)
		if r.Intn(2) == 0 {
			scale := float32(1 + r.Float64()*1e-6) // a hair past 1
			for k := range v {
				v[k] *= scale
			}
		}
	}
	return v
}

func negated(v Vector) Vector {
	for k := range v {
		v[k] = -v[k]
	}
	return v
}

// TestScanMatchesCosineLoop: the sparse four-way scan returns the same
// ids and the same score bits as the Cosine-per-vector loop it replaced,
// over every index length 0–23 (so every remainder mod 4), realistic
// and adversarial vectors, sign-flipped duplicates, exact ties under
// different ids, -0 entries, a zero query and unnormalized vectors.
func TestScanMatchesCosineLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	texts := []string{
		"What is the miss rate for mcf under LRU?",
		"which PC has the highest eviction count in lbm",
		"",
		"astar PARROT hit rate",
		"0x4037ba 0x4037bb evict=Cache Miss",
	}
	words := []string{"mcf", "lbm", "astar", "LRU", "PARROT", "hawkeye", "miss", "rate", "hit",
		"PC", "0x4037ba", "evictions", "reuse", "distance", "set", "why", "under", "the"}
	sentence := func() string {
		var b strings.Builder
		for n := 1 + r.Intn(10); n > 0; n-- {
			b.WriteString(words[r.Intn(len(words))] + " ")
		}
		return b.String()
	}
	for iter := 0; iter < 3000; iter++ {
		n := iter % 24
		ix := NewIndex()
		var vecs []Vector
		for i := 0; i < n; i++ {
			var v Vector
			switch k := r.Intn(6); {
			case k == 0 && len(vecs) > 0: // exact tie under another id
				v = vecs[r.Intn(len(vecs))]
			case k == 1 && len(vecs) > 0: // sign-flipped duplicate
				v = negated(vecs[r.Intn(len(vecs))])
			case k == 2:
				v = Embed(sentence())
			default:
				v = adversarialVector(r)
			}
			vecs = append(vecs, v)
			// Ids in random order, so a tie's winner is not the first slot.
			ix.AddVec(fmt.Sprintf("id%03d", r.Intn(1000)), v)
		}
		var q Vector
		switch k := r.Intn(6); {
		case k == 0: // the zero query scores every entry +0
		case k == 1 && len(vecs) > 0:
			q = vecs[r.Intn(len(vecs))]
		case k == 2 && len(vecs) > 0:
			q = negated(vecs[r.Intn(len(vecs))])
		case k == 3:
			q = Embed(sentence())
		default:
			q = adversarialVector(r)
		}
		checkAgainstReference(t, ix, q, texts[iter%len(texts)], sentence())
	}
}

// fuzzIDs names the fuzzed entries; slot i of a case takes id
// (7i mod 24), so ids and slots are in different orders.
var fuzzIDs = func() (ids [24]string) {
	for i := range ids {
		ids[i] = fmt.Sprintf("id%02d", i)
	}
	return ids
}()

// FuzzBestVecMatchesCosine is TestScanMatchesCosineLoop's check over
// vectors decoded from fuzz bytes. The first byte picks the index
// length (0–23). The query and then each vector are read as raw float32
// bits, cycling through the input; the lowest exponent bit is cleared,
// so the exponent is never all ones and every value is finite. The
// byte after a vector, when 0, 1 or 2, replaces it with the previous
// vector, that vector's negation, or the query: the tie, sign-flip and
// self-similarity shapes. The input's first 64 bytes are also the TopK
// and Best query text.
func FuzzBestVecMatchesCosine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add([]byte{5, 0x3f, 0x80, 0, 0, 0x80, 0, 0, 0, 0xbf, 0x80, 0, 0})
	f.Add([]byte{23, 0, 1, 2, 0x3e, 0xaa, 0xaa, 0xab, 0x41, 0x20, 0, 1})
	f.Add([]byte{13, 0x80, 0, 0, 0, 0x00, 0x00, 0x00, 0x01, 0x7f, 0x7f, 0xff, 0xff, 2, 1, 0})
	// 23 entries of values near ±1, laid out as the target reads them:
	// with no one term dominating a sum, a change in the summation order
	// shows in the rounding. The bytes after the vectors cycle 4, 0, 1,
	// 2, 3: fresh, previous, negation, query, fresh.
	r := rand.New(rand.NewSource(1))
	seed := []byte{23}
	for i := 0; i <= 23; i++ {
		for k := 0; k < Dim; k++ {
			bits := math.Float32bits(float32(r.NormFloat64()))
			seed = binary.BigEndian.AppendUint32(seed, bits)
		}
		if i > 0 {
			seed = append(seed, byte(3+i%5)%5)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		read := func() Vector {
			var v Vector
			for k := range v {
				bits := uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next())
				v[k] = math.Float32frombits(bits & 0xff7fffff)
			}
			return v
		}
		n := int(next()) % 24
		q := read()
		ix := NewIndex()
		var prev Vector
		for i := 0; i < n; i++ {
			v := read()
			switch next() {
			case 0:
				v = prev
			case 1:
				v = negated(prev)
			case 2:
				v = q
			}
			ix.AddVec(fuzzIDs[(i*7)%len(fuzzIDs)], v)
			prev = v
		}
		checkAgainstReference(t, ix, q, string(data[:min(len(data), 64)]))
	})
}

// BenchmarkIndexBestVec times one semantic-tier probe: BestVec over an
// index of question embeddings the size of a cache shard's residents.
func BenchmarkIndexBestVec(b *testing.B) {
	workloads := []string{"mcf", "lbm", "astar", "omnetpp", "soplex", "sphinx3", "milc", "gcc"}
	policies := []string{"LRU", "PARROT", "Hawkeye", "Mockingjay", "SRRIP", "BRRIP", "random"}
	templates := []string{
		"What is the miss rate for %s under %s?",
		"Which PC in %s has the most evictions under %s?",
		"Why does %s thrash the LLC with %s replacement?",
		"How many hits does %s get under %s at PC 0x40%02x?",
	}
	question := func(i int) string {
		tpl := templates[i%len(templates)]
		w, p := workloads[(i/4)%len(workloads)], policies[(i/32)%len(policies)]
		if strings.Count(tpl, "%") == 3 {
			return fmt.Sprintf(tpl, w, p, i%256)
		}
		return fmt.Sprintf(tpl, w, p)
	}
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			ix := NewIndex()
			for i := 0; i < n; i++ {
				ix.AddVec(fmt.Sprintf("q%04d", i), Embed(question(i)))
			}
			q := Embed("what's the miss rate of mcf with LRU")
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := ix.BestVec(q); !ok {
					b.Fatal("BestVec on a full index found nothing")
				}
			}
		})
	}
}
