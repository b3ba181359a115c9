package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json (at the tree's
// root) in step with the command: its workloads are ones the command runs,
// each listed once, and its metrics are the ones the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	known := map[string]bool{}
	for _, name := range WorkloadNames {
		known[name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs (%v)", w.Name, WorkloadNames)
		}
		delete(known, w.Name) // a second listing fails as unknown
	}
	check := func(kind string, declared []metric, defs []metricDef) {
		reported := map[string]string{}
		for _, d := range defs {
			if d.reported {
				reported[d.name] = d.unit
			}
		}
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", kind, len(declared), len(reported))
		}
		for _, m := range declared {
			unit, ok := reported[m.Name]
			if !ok || unit != m.Unit {
				t.Errorf("%s: %s in %s declared, command reports unit %q (reported %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
