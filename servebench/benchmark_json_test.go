package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesTheMetricCatalog keeps BENCHMARK.json and the
// metrics a run emits in step: same workloads, same metric names and
// units, in the same order.
func TestBenchmarkJSONMatchesTheMetricCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, want %v", spec.PerLayer, perLayer)
	}
}
