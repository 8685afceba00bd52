package main

import "fmt"

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of a -trace 0 run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"ask_p50_ms", "ms"},
	{"ask_p95_ms", "ms"},
	{"answered_frac", "fraction"},
	{"rss_mb", "MB"},
	{"tg_accuracy_pct", "%"},
	{"ara_score_pct", "%"},
}

// perLayer are the metrics of a -trace 1 run, in BENCHMARK.json order.
// A layer the workload does not reach reports 0: the retriever, queryir,
// nlu, generator, embed and memory replays and the allocation figures
// on hot-sessions-http, the cachemindd rows in process.
var perLayer = []metricDef{
	{"ask.p99_ms", "ms"},
	{"db.build_s", "s"},
	{"retriever.retrieve_ms.p50", "ms"},
	{"retriever.retrieve_ms.p99", "ms"},
	{"retriever.calls_per_ask", "count"},
	{"retriever.queries_per_call", "count"},
	{"retriever.query_error_frac", "fraction"},
	{"queryir.execute_us.p50", "us"},
	{"nlu.parse_us.p50", "us"},
	{"generator.generate_us.p50", "us"},
	{"engine.self_us.p50", "us"},
	{"engine.self_us.p99", "us"},
	{"engine.exact_hit_frac", "fraction"},
	{"engine.semantic_hit_frac", "fraction"},
	{"engine.miss_frac", "fraction"},
	{"engine.bypass_frac", "fraction"},
	{"engine.allocs_per_ask", "count"},
	{"engine.bytes_per_ask", "B"},
	{"engine.gc_cycles", "count"},
	{"engine.gc_pause_ms", "ms"},
	{"engine.allocs_per_nomemory_hit", "count"},
	{"embed.embed_us.p50", "us"},
	{"memory.add_us.p50", "us"},
	{"memory.add_us.p99", "us"},
	{"cachemindd.server_ms.p50", "ms"},
	{"cachemindd.wire_us.p50", "us"},
	{"cachemindd.wire_us.p99", "us"},
	{"cachemindd.response_bytes", "B"},
	{"cachemindd.ready_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
	{"trace.asks", "count"},
}

// complete makes the result carry exactly the metric set of its mode:
// every end-to-end metric must have been measured; per-layer metrics
// of layers the workload does not reach are filled with 0.
func (s *runState) complete() error {
	defs := endToEnd
	if s.cfg.trace == 1 {
		defs = perLayer
	}
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
		m, ok := s.res.Metrics[d.Name]
		switch {
		case !ok && s.cfg.trace == 0:
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		case !ok:
			s.put(d.Name, 0, d.Unit)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range s.res.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in the -trace %d set", name, s.cfg.trace)
		}
	}
	return nil
}
