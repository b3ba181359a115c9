package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric. Reported metrics are the ones
// BENCHMARK.json declares: the end-to-end ones in every run, the
// per-layer ones in traced runs. The rest exist only on some workloads
// and are printed, not reported.
type metricDef struct {
	name, unit string
	reported   bool
}

// endToEnd lists the end-to-end metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"qps", "1/s", true},
	{"p50_ms", "ms", true},
	{"p99_ms", "ms", true},
	{"table_p50_ms", "ms", true},
	{"table_p99_ms", "ms", true},
	{"setup_s", "s", true},
	{"rss_mb", "MiB", true},
	// Only mixed runs graph queries.
	{"graph_p50_ms", "ms", false},
	// Always 0 on a correct build; the result line carries it as
	// failed/attempted.
	{"error_share", "share", false},
}

// perLayer lists the per-layer metrics: the first group is read from the
// timed run's responses and the server's counters, the rest from the
// traced in-process replay.
var perLayer = []metricDef{
	{"http.overhead_p50_ms", "ms", true},
	{"queryd.cache.hit_rate", "share", true},
	{"queryd.cache.miss_p50_ms", "ms", true},
	{"queryd.shared.enroll_share", "share", true},
	{"queryd.independent_p50_ms", "ms", true},
	{"queryd.queue_wait_p99_ms", "ms", true},
	{"op.aggregate_p50_ms", "ms", true},
	{"op.groupby_p50_ms", "ms", true},
	// Defined only where the workload has cache hits, shared passes or
	// graph queries.
	{"queryd.cache.hit_p50_ms", "ms", false},
	{"queryd.shared.batch_mean", "count", false},
	{"queryd.shared.rider_p50_ms", "ms", false},
	{"op.pagerank_p50_ms", "ms", false},
	{"op.bfs_p50_ms", "ms", false},
	{"op.degree_p50_ms", "ms", false},

	{"plan.parse_us", "us", true},
	{"queryd.handler_us", "us", true},
	{"queryd.handler_hit_us", "us", true},
	{"queryd.alloc_bytes_per_query", "B", true},
	{"colstore.scan_ns_per_row", "ns", true},
	{"colstore.multiscan2_ns_per_row", "ns", true},
	{"colstore.multiscan2_vs_two_scans", "ratio", true},
	{"core.mask_ns_per_row", "ns", true},
	{"core.fold_ns_per_row", "ns", true},
	{"core.zone_pruned_share", "share", true},
	{"bitpack.mask_ns_per_row", "ns", true},
	{"bitpack.fold_ns_per_row", "ns", true},
	{"rts.loop_overhead_us", "us", true},
	{"analytics.pagerank_ms", "ms", true},
	{"analytics.bfs_ms", "ms", true},
	{"analytics.degree_ms", "ms", true},
	{"encoding.bytes_per_value", "B", true},
	{"trace.overhead_pct", "%", true},
}

// metricValue is one measured value with a note on what it rests on
// (sample counts, bases of ratios).
type metricValue struct {
	value float64
	note  string
	err   error
}

// metrics collects one run's values by name.
type metrics map[string]metricValue

func (m metrics) set(name string, v float64, note string) {
	m[name] = metricValue{value: v, note: note}
}

func (m metrics) fail(name string, err error) { m[name] = metricValue{err: err} }

// pct records a percentile of samples (in the samples' unit) with its
// sample count, or why there is none.
func (m metrics) pct(name string, samples []float64, q float64) {
	p, err := percentile(samples, q)
	if err != nil {
		m.fail(name, err)
		return
	}
	m.set(name, p.Value, fmt.Sprintf("n=%d, %d beyond", p.N, p.Beyond))
}

// share records num/den with its base, or why there is none.
func (m metrics) share(name string, num, den int) {
	if den == 0 {
		m.fail(name, fmt.Errorf("no base (0 of 0)"))
		return
	}
	m.set(name, float64(num)/float64(den), fmt.Sprintf("%d of %d", num, den))
}

// print writes every defined metric of defs present in m, one per line.
func (m metrics) print(w io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		v, ok := m[d.name]
		switch {
		case !ok:
			continue
		case v.err != nil:
			fmt.Fprintf(w, "  %-36s %14s %-5s  (%v)\n", d.name, "n/a", d.unit, v.err)
		default:
			fmt.Fprintf(w, "  %-36s %14.6g %-5s  %s\n", d.name, v.value, d.unit, v.note)
		}
	}
}

// reported returns the reported metrics of defs in result-line form, or
// an error naming the first one this run could not measure.
func (m metrics) reported(defs []metricDef) (map[string]resultMetric, error) {
	out := map[string]resultMetric{}
	for _, d := range defs {
		if !d.reported {
			continue
		}
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if v.err != nil {
			return nil, fmt.Errorf("metric %s: %w", d.name, v.err)
		}
		out[d.name] = resultMetric{Value: v.value, Unit: d.unit}
	}
	return out, nil
}

// resultMetric is one metric in the result line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
