// Package embed provides deterministic text embeddings and a small
// vector store. The paper's Sieve retriever uses a sentence embedder to
// match workload/policy mentions against database keys, and its
// LlamaIndex baseline retrieves trace chunks by embedding cosine
// similarity; both are served by this package's character-n-gram hashing
// embedder — an offline stand-in with the property the paper's failure
// analysis hinges on: records differing only in a few hex digits embed
// almost identically, so cosine retrieval cannot tell them apart.
package embed

import (
	"math"
	"sort"
	"strings"
)

// Dim is the embedding dimensionality.
const Dim = 128

// Vector is one L2-normalized embedding.
type Vector [Dim]float32

// fnv1a64 hashes a byte window.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Embed maps text to a vector by hashing character trigrams (plus whole
// words) into Dim buckets with signed counts, then L2-normalizing.
// Embedding is case-insensitive and deterministic.
func Embed(text string) Vector {
	var v Vector
	t := strings.ToLower(text)
	add := func(tok string, weight float32) {
		h := fnv1a64(tok)
		idx := int(h % Dim)
		sign := float32(1)
		if h>>63 == 1 {
			sign = -1
		}
		v[idx] += sign * weight
	}
	// Character trigrams capture sub-word shape.
	for i := 0; i+3 <= len(t); i++ {
		add(t[i:i+3], 1)
	}
	// Whole words get extra weight so names dominate.
	for _, w := range strings.FieldsFunc(t, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_')
	}) {
		if w != "" {
			add("w:"+w, 2)
		}
	}
	return normalize(v)
}

func normalize(v Vector) Vector {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if ss == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(ss))
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Cosine returns the cosine similarity of two vectors. Both inputs are
// expected normalized (as Embed returns), so this is a dot product,
// clamped to [-1, 1]: float32 rounding can push the dot of a vector
// with itself a hair past 1, and callers treat the score as a true
// cosine (e.g. comparing against a 1.0 threshold).
//
// Cosine is the reference definition of every score this package
// returns. Scores, and through it the Index searches, compute the same
// value bit for bit with a faster scan (see sparseQuery).
func Cosine(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return clamp(dot)
}

func clamp(dot float64) float64 { return math.Max(-1, math.Min(1, dot)) }

// sparseQuery is a query vector prepared for scanning many vectors: the
// indices of its nonzero buckets, ascending, collected once per search.
// A question's trigram embedding sets about a third of the Dim buckets,
// so a scan over nz does a third of Cosine's multiply-adds.
//
// The scores are exactly Cosine's, bit for bit, for finite vectors:
//   - every skipped term is float64(±0) times a finite float64, an
//     exact ±0;
//   - each accumulator starts at +0, and a round-to-nearest sum is -0
//     only when both addends are -0, so it is never -0 and adding ±0
//     leaves it unchanged;
//   - the kept terms are added in ascending index, Cosine's order;
//   - each term is written as Cosine writes it, acc += float64(q[k]) *
//     float64(v[k]), so an architecture that fuses that form into one
//     multiply-add fuses both the same way;
//   - the same clamp is applied last.
type sparseQuery struct {
	q  *Vector
	nz [Dim]uint8
	n  int
}

func newSparseQuery(q *Vector) sparseQuery {
	s := sparseQuery{q: q}
	for k, x := range q {
		if x != 0 {
			s.nz[s.n] = uint8(k)
			s.n++
		}
	}
	return s
}

// scan sets dst[i] to the score of vecs[i] for every i < len(dst). It
// scores four vectors per pass with four independent accumulators, so
// the additions overlap instead of waiting on one chain. A final pass
// short of four vectors repeats the last one in the spare lanes and
// discards their scores.
func (s *sparseQuery) scan(vecs []Vector, dst []float64) {
	q, nz, last := s.q, s.nz[:s.n], len(dst)-1
	for i := 0; i <= last; i += 4 {
		a, b, c, d := &vecs[i], &vecs[min(i+1, last)], &vecs[min(i+2, last)], &vecs[min(i+3, last)]
		var s0, s1, s2, s3 float64
		for _, k := range nz {
			s0 += float64(q[k]) * float64(a[k])
			s1 += float64(q[k]) * float64(b[k])
			s2 += float64(q[k]) * float64(c[k])
			s3 += float64(q[k]) * float64(d[k])
		}
		out := [4]float64{clamp(s0), clamp(s1), clamp(s2), clamp(s3)}
		copy(dst[i:], out[:])
	}
}

// Scores sets dst[i] = Cosine(q, vecs[i]), bit for bit, for every
// vector in vecs, through the sparse four-way scan. dst must be at
// least len(vecs) long. It allocates nothing.
func Scores(q *Vector, vecs []Vector, dst []float64) {
	s := newSparseQuery(q)
	s.scan(vecs, dst[:len(vecs)])
}

// Match is one retrieval hit from an Index.
type Match struct {
	ID    string
	Score float64
}

// Index is an exact top-k cosine index over embedded documents. It
// supports removal (swap-delete, O(1)) so a bounded cache can keep a
// vector per resident entry and delete it on eviction; pos maps ids to
// their slot, so Add on an existing id replaces its vector in place
// instead of leaking the old slot.
type Index struct {
	ids  []string
	vecs []Vector
	pos  map[string]int
	text map[string]string
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{pos: map[string]int{}, text: map[string]string{}}
}

// Add embeds and stores a document under id. Adding an existing id
// replaces its text and vector but keeps one entry.
func (ix *Index) Add(id, text string) {
	ix.AddVec(id, Embed(text))
	ix.text[id] = text
}

// AddVec stores a precomputed vector under id (replacing any existing
// vector for that id) without retaining document text — the form the
// engine's semantic answer-cache tier uses, where the vector is
// computed once per miss and the id is a cache key, not a document.
func (ix *Index) AddVec(id string, v Vector) {
	if i, ok := ix.pos[id]; ok {
		ix.vecs[i] = v
		return
	}
	ix.pos[id] = len(ix.ids)
	ix.ids = append(ix.ids, id)
	ix.vecs = append(ix.vecs, v)
}

// Remove deletes id's entry (vector, text, and slot) and reports
// whether it was present. The freed slot is reused by the next Add, so
// an add/remove churn never grows the index past its live-entry count.
func (ix *Index) Remove(id string) bool {
	i, ok := ix.pos[id]
	if !ok {
		return false
	}
	last := len(ix.ids) - 1
	if i != last {
		ix.ids[i] = ix.ids[last]
		ix.vecs[i] = ix.vecs[last]
		ix.pos[ix.ids[i]] = i
	}
	ix.ids = ix.ids[:last]
	ix.vecs = ix.vecs[:last]
	delete(ix.pos, id)
	delete(ix.text, id)
	return true
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.ids) }

// Text returns the stored document for id.
func (ix *Index) Text(id string) (string, bool) {
	t, ok := ix.text[id]
	return t, ok
}

// TopK returns the k most similar documents to the query, by descending
// cosine score with ties broken by id for determinism.
func (ix *Index) TopK(query string, k int) []Match {
	q := Embed(query)
	scores := make([]float64, len(ix.vecs))
	Scores(&q, ix.vecs, scores)
	matches := make([]Match, len(ix.ids))
	for i, id := range ix.ids {
		matches[i] = Match{ID: id, Score: scores[i]}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].ID < matches[j].ID
	})
	if k > len(matches) {
		k = len(matches)
	}
	return matches[:k]
}

// Best returns the single best match, or ok=false for an empty index:
// the highest score, ties broken by the smallest id, as TopK ranks.
func (ix *Index) Best(query string) (Match, bool) {
	return ix.BestVec(Embed(query))
}

// BestVec returns the single best match for a precomputed query vector
// without sorting the whole candidate set — the nearest-neighbor probe
// on the engine's semantic-tier miss path. Ties break by id, so the
// result is independent of insertion (and swap-delete) order. Each
// score is Cosine(q, v) bit for bit (see sparseQuery), so the winner is
// the one a Cosine loop picks; the scan allocates nothing.
func (ix *Index) BestVec(q Vector) (Match, bool) {
	if len(ix.ids) == 0 {
		return Match{}, false
	}
	s := newSparseQuery(&q)
	best := Match{Score: math.Inf(-1)}
	var buf [64]float64
	for lo := 0; lo < len(ix.vecs); lo += len(buf) {
		scores := buf[:min(len(buf), len(ix.vecs)-lo)]
		s.scan(ix.vecs[lo:], scores)
		for j, score := range scores {
			if id := ix.ids[lo+j]; score > best.Score || (score == best.Score && id < best.ID) {
				best = Match{ID: id, Score: score}
			}
		}
	}
	return best, true
}
