package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/embed"
	"cachemind/internal/predict"
)

// PrefetchConfig parameterizes the predictive session prefetcher: a
// TAGE-style next-question predictor (internal/predict) fed by every
// recorded ask, whose predictions are executed through the cold
// pipeline by background workers and inserted into the answer cache as
// low-priority fills. The zero value disables prefetching.
//
// The foreground contract is absolute: an Ask only ever performs one
// non-blocking channel send toward the prefetcher — no locks shared
// with workers, no allocations — so prefetch can never add latency or
// allocations to the ask path (the 0-allocs/op gate holds with
// prefetching enabled). All budget knobs below bound the *background*
// side.
type PrefetchConfig struct {
	// Enabled turns the prefetcher on. Requires caching (CacheSize >= 0);
	// New rejects the combination with caching disabled.
	Enabled bool
	// Degree is how many next questions are predicted (and at most
	// issued) per observed ask. 0 selects 1; values above 4 are clamped
	// to 4 (the predictor's Markov row width).
	Degree int
	// Workers is the background fill worker count. 0 selects 2.
	Workers int
	// QueueDepth bounds the observation queue between the ask path and
	// the workers; when full, observations are dropped (counted in
	// Stats.Prefetch.Dropped), never blocked on. 0 selects 1024.
	QueueDepth int
	// MaxFillsPerSec is the token-bucket rate cap on background pipeline
	// executions — the prefetcher's work budget. 0 selects 256; negative
	// disables the cap.
	MaxFillsPerSec int
	// Predictor overrides the predictor geometry (tables, history
	// lengths, table sizes, seed). Zero fields take predict's defaults.
	Predictor predict.Config
}

// PrefetchStats is the prefetcher's counter snapshot (all zero when
// disabled). CoveredMissRate-style derivations belong to consumers:
// covered/(covered+misses) is the fraction of would-be misses a
// prefetched entry absorbed, wasted/issued the fraction of issued
// fills that never served anyone.
type PrefetchStats struct {
	// Enabled reports whether the prefetcher is live.
	Enabled bool
	// Predictions counts predicted next questions produced by the
	// predictor across all observed asks.
	Predictions uint64
	// Issued counts background fills that ran the pipeline (predictions
	// that were not already resident, in flight, or over budget).
	Issued uint64
	// Covered counts prefetched cache entries whose first demand touch
	// was served from the prefetch — each one a demand miss that did not
	// happen (coalesced followers of an in-flight prefetch count once,
	// on the flight's entry).
	Covered uint64
	// Wasted counts prefetched entries that never served a demand ask:
	// evicted untouched, or bypassed by the eviction policy at insert.
	Wasted uint64
	// Dropped counts budget refusals: observations dropped on a full
	// queue plus predicted fills refused by the rate cap.
	Dropped uint64
}

// prefetchObs is one recorded ask, queued by value from the ask path to
// the workers (both strings are heap strings owned by the request —
// never pooled scratch — so the send aliases nothing pool-owned and
// allocates nothing).
type prefetchObs struct {
	sid      string
	question string
}

// prefetcher owns the predictor, the observation queue and the fill
// workers. It is created by New when Config.Prefetch.Enabled and torn
// down by Engine.Close.
type prefetcher struct {
	eng    *Engine
	pred   *predict.Predictor
	degree int

	obs   chan prefetchObs
	stopc chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	// Token bucket for the fill budget (rate <= 0: uncapped).
	tbMu  sync.Mutex
	rate  float64
	avail float64
	last  time.Time

	predictions atomic.Uint64
	issued      atomic.Uint64
	dropped     atomic.Uint64

	// enqueued/processed drive PrefetchQuiesce: a worker increments
	// processed only after every fill for that observation has
	// completed, so processed >= enqueued means the background side is
	// idle.
	enqueued  atomic.Uint64
	processed atomic.Uint64
}

func newPrefetcher(e *Engine, cfg PrefetchConfig) *prefetcher {
	degree := cfg.Degree
	if degree <= 0 {
		degree = 1
	}
	if degree > 4 {
		degree = 4
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	rate := float64(cfg.MaxFillsPerSec)
	if cfg.MaxFillsPerSec == 0 {
		rate = 256
	}
	p := &prefetcher{
		eng:    e,
		pred:   predict.New(cfg.Predictor),
		degree: degree,
		obs:    make(chan prefetchObs, depth),
		stopc:  make(chan struct{}),
		rate:   rate,
		avail:  rate, // start full so short bursts (tests, smoke) fill immediately
		last:   time.Now(),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// observe is the ask path's only contact with the prefetcher: one
// non-blocking send. A full queue drops the observation — foreground
// latency is never spent on background bookkeeping.
func (p *prefetcher) observe(sid, question string) {
	select {
	case p.obs <- prefetchObs{sid: sid, question: question}:
		p.enqueued.Add(1)
	default:
		p.dropped.Add(1)
	}
}

// takeToken debits the fill budget; false means the fill is refused
// (counted by the caller).
func (p *prefetcher) takeToken() bool {
	if p.rate <= 0 {
		return true
	}
	p.tbMu.Lock()
	defer p.tbMu.Unlock()
	now := time.Now()
	p.avail += now.Sub(p.last).Seconds() * p.rate
	if p.avail > p.rate {
		p.avail = p.rate // burst bounded to one second of budget
	}
	p.last = now
	if p.avail < 1 {
		return false
	}
	p.avail--
	return true
}

func (p *prefetcher) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stopc:
			return
		case o := <-p.obs:
			preds := p.pred.Observe(o.sid, o.question, p.degree)
			p.predictions.Add(uint64(len(preds)))
			for _, q := range preds {
				if !p.takeToken() {
					p.dropped.Add(1)
					continue
				}
				p.fill(q)
			}
			p.processed.Add(1)
		}
	}
}

// fill speculatively answers one predicted question through the cold
// pipeline and inserts the result as a low-priority prefetch fill. It
// leads through the same claim/settle pair as a demand ask: a question
// already resident or in flight is skipped, a demand ask that arrives
// mid-fill coalesces onto this call (and is counted covered), and a
// fill never races a demand leader for the same key. Fills run under
// context.Background(): they are not on behalf of any request, so no
// request's cancellation aborts them (the budget bounds them instead).
func (p *prefetcher) fill(question string) {
	e := p.eng
	key := e.keyPrefix + question
	cache := e.caches[shardIndex(key, e.ncacheShards)]
	_, call, lead := cache.claim(key, true)
	if !lead {
		return // already resident (recency untouched) or being computed
	}
	p.issued.Add(1)
	var qvec *embed.Vector
	if e.semThreshold > 0 {
		v := embed.Embed(question)
		qvec = &v
	}
	ans, err := e.pipeline(context.Background(), question)
	cache.settle(key, call, ans, err, qvec)
}

// close stops the workers. Idempotent; queued observations not yet
// picked up are discarded.
func (p *prefetcher) close() {
	p.once.Do(func() { close(p.stopc) })
	p.wg.Wait()
}

// Close releases the engine's background resources (today: the
// prefetch workers). An engine without prefetching needs no Close, but
// calling it is always safe. Close does not wait for queued
// observations — use PrefetchQuiesce first when counters must settle.
func (e *Engine) Close() {
	if e.pf != nil {
		e.pf.close()
	}
}

// PrefetchQuiesce blocks until the prefetcher has drained every
// observation enqueued so far (including the fills they triggered) or
// the timeout elapses, reporting whether it drained. True on an engine
// without prefetching. Benchmarks and tests call this before
// snapshotting Stats or measuring foreground allocations, so
// background work never bleeds into a measurement.
func (e *Engine) PrefetchQuiesce(timeout time.Duration) bool {
	if e.pf == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		if e.pf.processed.Load() >= e.pf.enqueued.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
