package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"cachemind/internal/bench"
	"cachemind/internal/db"
	"cachemind/internal/engine"
)

// The serving configuration every workload runs: cachemindd's flag
// defaults (store, retriever, model, cache size, one shard per CPU).
// Only the semantic threshold differs between workloads.
const (
	defaultAccesses = 60000 // cachemindd -accesses
	storeSeed       = 42    // cachemindd -seed
	cacheSize       = engine.DefaultCacheSize

	clients  = 2  // closed-loop callers; the benchmark box has 2 CPUs
	sessions = 32 // distinct session IDs, as in the CI gate mix

	// planSuites is how many CacheMindBench suites a run grades and
	// cold-grounded draws its questions from: ten suites give about 550
	// distinct texts, more than twice the answer cache.
	planSuites = 10

	// The hot mix: cmd/loadgen's CI gate (repeat 0.5, paraphrase 0.3,
	// semantic threshold 0.85), as a fixed-length plan cycled through
	// the measured window.
	hotPlanLen        = 8192
	hotRepeat         = 0.5
	hotParaphrase     = 0.3
	semanticThreshold = 0.85
)

// The workload names BENCHMARK.json lists.
const (
	wlCold     = "cold-grounded"
	wlHot      = "hot-sessions"
	wlHotHTTP  = "hot-sessions-http"
	sessPrefix = "lg-"
)

var workloads = []string{wlCold, wlHot, wlHotHTTP}

// item is one ask of a plan.
type item struct {
	Session  string
	Question string
}

// plan is a workload's input: the asks its callers cycle through and
// the warmup that precedes measurement. It is a pure function of the
// workload, the store and the seed.
type plan struct {
	Workload string
	// Items are cycled in order by all callers, sharing one cursor.
	Items []item
	// Serial warmup asks run one at a time before Concurrent, so the
	// cache contents they leave are deterministic.
	Serial []item
	// Concurrent warmup asks run on all callers.
	Concurrent []item
	// SemanticThreshold configures the serving engine.
	SemanticThreshold float64
}

// suiteSeeds derives n CacheMindBench suite seeds from a run's seed,
// so different runs draw different questions.
func suiteSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// suites concatenates the first n suites drawn from seed into one.
func suites(store *db.Store, seed int64, n int) (*bench.Suite, error) {
	all := &bench.Suite{}
	for _, s := range suiteSeeds(seed, n) {
		su, err := bench.Generate(store, s)
		if err != nil {
			return nil, fmt.Errorf("generate suite %d: %w", s, err)
		}
		all.Questions = append(all.Questions, su.Questions...)
	}
	return all, nil
}

// buildPlan returns the workload's plan. cold-grounded cycles the
// distinct texts of the run's suites in a seeded order with the
// semantic tier off; the hot workloads cycle the CI gate mix over the
// suite bench.Generate draws for the seed.
func buildPlan(workload string, store *db.Store, seed int64) (*plan, error) {
	switch workload {
	case wlCold:
		suite, err := suites(store, seed, planSuites)
		if err != nil {
			return nil, err
		}
		var texts []string
		seen := map[string]bool{}
		for _, q := range suite.Questions {
			if !seen[q.Text] {
				seen[q.Text] = true
				texts = append(texts, q.Text)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
		p := &plan{Workload: workload, Items: withSessions(texts)}
		// Warm with the plan's tail: the cache then holds the last
		// cacheSize questions before the first, so the window starts
		// in the steady state where every ask inserts and evicts.
		p.Concurrent = p.Items[max(len(p.Items)-cacheSize, 0):]
		return p, nil
	case wlHot, wlHotHTTP:
		suite, err := bench.Generate(store, seed)
		if err != nil {
			return nil, fmt.Errorf("generate suite: %w", err)
		}
		mix := bench.SampleMixParaphrase(suite, hotPlanLen, seed, hotRepeat, hotParaphrase)
		p := &plan{Workload: workload, Items: withSessions(mix), SemanticThreshold: semanticThreshold}
		// Every distinct text once, serially, fills the cache; one
		// concurrent pass of the plan then brings the sessions'
		// recorded memory to the depths the window sees.
		seen := map[string]bool{}
		for _, it := range p.Items {
			if !seen[it.Question] {
				seen[it.Question] = true
				p.Serial = append(p.Serial, it)
			}
		}
		p.Concurrent = p.Items
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// withSessions assigns ask i to session i mod sessions, cmd/loadgen's
// scheme.
func withSessions(questions []string) []item {
	out := make([]item, len(questions))
	for i, q := range questions {
		out[i] = item{Session: sessPrefix + strconv.Itoa(i%sessions), Question: q}
	}
	return out
}

// distinctQuestions lists the plan's question texts once each, in
// first-appearance order.
func (p *plan) distinctQuestions() []string {
	var out []string
	seen := map[string]bool{}
	for _, it := range p.Items {
		if !seen[it.Question] {
			seen[it.Question] = true
			out = append(out, it.Question)
		}
	}
	return out
}
