package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The metrics a run prints must be exactly the ones BENCHMARK.json names,
// with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type metricSpec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricSpec, got map[string]metric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: run reports %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s reported as %+v (present %v), want unit %s", kind, m.Name, g, ok, m.Unit)
			}
		}
	}

	var e2e report
	m := measured{lat: []float64{3, 1, 2}, elapsed: time.Second}
	e2e.endToEnd([]measured{m}, []measured{m, m}, []float64{0.1}, []float64{0.5}, 100)
	check("end_to_end", bench.EndToEnd, e2e.res.Metrics)

	var layers report
	layers.setPerLayer(map[string]float64{})
	check("per_layer", bench.PerLayer, layers.res.Metrics)
}
