// Command loadgen is CacheMind's closed-loop load generator and the CI
// perf gate's measurement tool: it replays a deterministic question mix
// drawn from the CacheMindBench suite against either an in-process
// engine (default — isolates engine contention) or a running cachemindd
// (-url), and writes a BENCH_loadgen.json with throughput, p50/p95/p99
// latency, and the client-observed cache hit rate.
//
// Closed loop means each of the -c workers issues its next request only
// after the previous one completes, so concurrency — not arrival rate —
// is the controlled variable, and reported latency is never inflated by
// client-side queueing.
//
// Usage:
//
//	loadgen                                  # 2000 questions, concurrency 8, in-process
//	loadgen -n 10000 -c 32 -shards 16        # hammer a 16-shard engine
//	loadgen -url http://127.0.0.1:8080 -batch 16
//	loadgen -duration 30s -repeat 0.9        # cache-heavy mix for 30s
//	loadgen -cache-policy hawkeye            # paper policy on the answer cache
//	loadgen -policy-sweep -n 2000            # one pass per policy, comparative table
//	loadgen -semantic-threshold 0.85 -paraphrase 0.3   # paraphrase mix against the semantic tier
//	loadgen -warmup 256 -n 2000                        # warm the cache, then measure
//	loadgen -cpuprofile cpu.pprof -memprofile mem.pprof
//	loadgen -strict -min-qps 2000 -max-p99-ms 10 -max-allocs 2   # enforced perf gate
//	loadgen -session-replay -prefetch -session-turns 8 -follow 0.8   # follow-up sessions + speculative prefill
//
// The question stream is a pure function of (-seed, -repeat, store), so
// identical flags replay identical load; -strict makes any request
// error (or zero throughput) a non-zero exit, which is what the CI perf
// gate keys off. -request-timeout puts a context deadline on every
// request — the engine's cancellation path under load — and requests it
// expires are reported as "canceled" (a separate BENCH_loadgen.json
// counter, not an error, so a deliberate tight deadline doesn't trip
// -strict).
//
// In-process cache numbers come from Engine.Stats(), so hit_rate is
// hits/(hits+misses) over actual cache lookups. -policy-sweep replays
// the identical deterministic mix once per registered eviction policy
// (engine.CachePolicies()) and writes one policy_sweep row each —
// throughput, latency, hit rate, and an answer digest that must agree
// across policies, since eviction decides residency, never bytes.
//
// -warmup N issues N questions (same plan, same sessions) before
// measurement starts and discards their outcomes, so percentiles and
// cache tallies describe a warmed cache. -cpuprofile/-memprofile write
// pprof profiles of the measured run. Under -strict the -min-qps,
// -max-p99-ms and -max-allocs thresholds (each live when > 0) turn the
// report into an enforced perf gate.
//
// -session-replay swaps the flat mix for bench.SampleSessions: -sessions
// follow-up conversations of -session-turns questions each, following a
// small set of fixed scripts with probability -follow per turn,
// interleaved so each session's next turn arrives many asks after its
// previous one. -prefetch enables the in-process engine's predictive
// session prefetcher on that workload; the report gains the prefetch
// counter block plus covered_miss_rate / wasted_prefetch_rate in the
// cache block, and -min-covered-rate (with -strict) floors the covered
// rate the way -min-qps floors throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var cfg config
	flag.StringVar(&cfg.url, "url", "", "drive remote cachemindd nodes at these comma-separated base URLs, round-robin with transport-error failover (empty: in-process engine)")
	flag.IntVar(&cfg.concurrency, "c", 8, "closed-loop workers")
	flag.IntVar(&cfg.requests, "n", 2000, "total questions to ask (ignored when -duration is set)")
	flag.DurationVar(&cfg.duration, "duration", 0, "run for this long instead of a fixed count")
	flag.IntVar(&cfg.batch, "batch", 1, "questions per request (> 1 uses POST /v1/ask/batch / Engine.AskBatch)")
	flag.Float64Var(&cfg.repeat, "repeat", 0.5, "probability a draw re-asks an earlier question (cache exercise)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed for the store build and the question mix")
	flag.IntVar(&cfg.sessions, "sessions", 32, "distinct session IDs cycled across questions")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request HTTP timeout (-url mode)")
	flag.DurationVar(&cfg.reqTimeout, "request-timeout", 0, "per-request context deadline; expired requests count as canceled, not errors (0: none)")
	flag.StringVar(&cfg.dbPath, "db", "", "store written by tracegen (empty: build in-memory)")
	flag.IntVar(&cfg.accesses, "accesses", 4000, "accesses per trace when building in-memory")
	flag.StringVar(&cfg.retriever, "retriever", "ranger", "retriever for the in-process engine")
	flag.StringVar(&cfg.model, "model", "gpt-4o", "generator backend for the in-process engine")
	flag.IntVar(&cfg.shards, "shards", 0, "in-process engine shard count (0: one per CPU)")
	flag.IntVar(&cfg.cacheSize, "cache", 0, "in-process answer-cache entries (0: default, negative: disable)")
	flag.StringVar(&cfg.cachePolicy, "cache-policy", "lru", "in-process answer-cache eviction policy (lru, rrip, ship, hawkeye, mockingjay, mlp, ...)")
	flag.Float64Var(&cfg.semThreshold, "semantic-threshold", 0, "in-process semantic cache tier: serve the nearest cached question at or above this cosine similarity on an exact miss (0: disabled, 1: exact-only)")
	flag.Float64Var(&cfg.paraphrase, "paraphrase", 0, "probability a repeat draw is reworded instead of byte-identical (exercises the semantic tier)")
	flag.BoolVar(&cfg.policySweep, "policy-sweep", false, "replay the identical mix under every registered cache policy and emit the comparative policy_sweep table (in-process, count mode)")
	flag.BoolVar(&cfg.prefetch, "prefetch", false, "enable the in-process engine's predictive session prefetcher (speculative background fills of predicted next questions)")
	flag.BoolVar(&cfg.sessionReplay, "session-replay", false, "replay scripted follow-up sessions (bench.SampleSessions) instead of the flat question mix — the workload shape prefetching targets")
	flag.IntVar(&cfg.sessionTurns, "session-turns", 8, "questions per session under -session-replay")
	flag.Float64Var(&cfg.follow, "follow", 0.8, "per-turn probability a -session-replay session follows its script instead of detouring to a random question")
	flag.Float64Var(&cfg.minCoveredRate, "min-covered-rate", 0, "strict gate: fail when covered_miss_rate falls below this floor (needs -prefetch; 0: off)")
	flag.IntVar(&cfg.warmup, "warmup", 0, "questions issued and discarded before measurement starts (excluded from latency and cache tallies)")
	flag.Float64Var(&cfg.minQPS, "min-qps", 0, "strict gate: fail when measured throughput drops below this floor (0: off)")
	flag.Float64Var(&cfg.maxP99MS, "max-p99-ms", 0, "strict gate: fail when p99 latency exceeds this many milliseconds (0: off)")
	flag.Float64Var(&cfg.maxAllocs, "max-allocs", 0, "strict gate: fail when allocs_per_cached_ask exceeds this budget; fractional values like 0.5 assert an allocation-free path (in-process only; 0: off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	out := flag.String("out", "BENCH_loadgen.json", "report path")
	strict := flag.Bool("strict", false, "exit non-zero on any request error, zero throughput, or breached -min-qps/-max-p99-ms/-max-allocs threshold (the CI perf gate)")
	flag.Parse()
	// CLI runs always report allocs_per_cached_ask; the config knob only
	// exists so tests whose assertions read the engine's cumulative
	// counters can keep the probe's extra asks out of them.
	cfg.measureAllocs = true

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	report, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // collect dead objects so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d questions in %.2fs → %.0f q/s, p50 %.3fms p95 %.3fms p99 %.3fms, hit rate %.1f%% (exact %.1f%% + semantic %.1f%%), %d errors, %d canceled\n",
		report.Mode, report.Questions, report.DurationSeconds, report.ThroughputQPS,
		report.Latency.P50, report.Latency.P95, report.Latency.P99,
		100*report.Cache.HitRate, 100*report.Cache.ExactHitRate, 100*report.Cache.SemanticHitRate,
		report.Errors, report.Canceled)
	if report.AllocsPerCachedAsk != nil {
		fmt.Printf("cached ask: %.2f allocs/op (exact hit, recorded turn)\n", *report.AllocsPerCachedAsk)
	}
	if report.Prefetch != nil {
		fmt.Printf("prefetch: %d predicted, %d issued, %d covered, %d wasted, %d dropped → covered miss rate %.1f%%, wasted rate %.1f%%\n",
			report.Prefetch.Predictions, report.Prefetch.Issued, report.Prefetch.Covered,
			report.Prefetch.Wasted, report.Prefetch.Dropped,
			100*report.Cache.CoveredMissRate, 100*report.Cache.WastedPrefetchRate)
	}
	if len(report.PolicySweep) > 0 {
		fmt.Println("policy sweep (identical mix per policy):")
		for _, row := range report.PolicySweep {
			fmt.Printf("  %-11s %8.0f q/s  hit %5.1f%%  p50 %7.3fms  p95 %7.3fms  %d errors  %d canceled\n",
				row.Policy, row.ThroughputQPS, 100*row.Cache.HitRate,
				row.Latency.P50, row.Latency.P95, row.Errors, row.Canceled)
		}
	}
	fmt.Printf("wrote %s\n", *out)

	if *strict {
		if report.Errors > 0 {
			log.Fatalf("strict: %d request errors (first: %s)", report.Errors, report.ErrorSample)
		}
		if report.ThroughputQPS <= 0 {
			log.Fatal("strict: zero throughput")
		}
		// Canceled questions are not errors, but a run where nothing
		// was actually answered proves nothing — e.g. a stalled runner
		// timing out every ask would otherwise still report positive
		// (canceled-inflated) throughput and pass the gate.
		if answered := report.Questions - report.Errors - report.Canceled; answered <= 0 {
			log.Fatalf("strict: no questions answered (%d asked, %d canceled)", report.Questions, report.Canceled)
		}
		// Threshold gates: each is live when its flag is positive. These
		// turn the report from a measurement into an enforced contract —
		// a perf regression fails CI instead of drifting into the trend
		// line.
		if cfg.minQPS > 0 && report.ThroughputQPS < cfg.minQPS {
			log.Fatalf("strict: throughput %.0f q/s below the -min-qps %.0f floor", report.ThroughputQPS, cfg.minQPS)
		}
		if cfg.maxP99MS > 0 && report.Latency.P99 > cfg.maxP99MS {
			log.Fatalf("strict: p99 %.3fms above the -max-p99-ms %.3f ceiling", report.Latency.P99, cfg.maxP99MS)
		}
		if cfg.maxAllocs > 0 {
			if report.AllocsPerCachedAsk == nil {
				log.Fatal("strict: -max-allocs set but allocs_per_cached_ask was not measured (cache disabled?)")
			}
			if *report.AllocsPerCachedAsk > cfg.maxAllocs {
				log.Fatalf("strict: cached ask costs %.2f allocs/op, above the -max-allocs %.2f budget", *report.AllocsPerCachedAsk, cfg.maxAllocs)
			}
		}
		if cfg.minCoveredRate > 0 && report.Cache.CoveredMissRate < cfg.minCoveredRate {
			log.Fatalf("strict: covered_miss_rate %.4f below the -min-covered-rate %.4f floor", report.Cache.CoveredMissRate, cfg.minCoveredRate)
		}
		// The sweep gate holds every policy to the same bar: any
		// request error, or a policy that answered nothing, fails.
		for _, row := range report.PolicySweep {
			if row.Errors > 0 {
				log.Fatalf("strict: policy %s had %d request errors", row.Policy, row.Errors)
			}
			if answered := row.Questions - row.Errors - row.Canceled; answered <= 0 {
				log.Fatalf("strict: policy %s answered nothing (%d asked, %d canceled)", row.Policy, row.Questions, row.Canceled)
			}
		}
	}
}
