package main

import (
	"bufio"
	"strings"
	"testing"
)

const metricsText = `# HELP smartarrays_latency_ns Wall-time latency distributions (loop and span timings).
# TYPE smartarrays_latency_ns histogram
smartarrays_latency_ns_bucket{name="queryd.queue_wait",le="0"} 0
smartarrays_latency_ns_bucket{name="queryd.queue_wait",le="1"} 2
smartarrays_latency_ns_bucket{name="queryd.queue_wait",le="3"} 5
smartarrays_latency_ns_bucket{name="queryd.queue_wait",le="+Inf"} 5
smartarrays_latency_ns_sum{name="queryd.queue_wait"} 11
smartarrays_latency_ns_count{name="queryd.queue_wait"} 5
smartarrays_latency_ns_bucket{name="rts.loop",le="1"} 9
smartarrays_latency_ns_count{name="rts.loop"} 9
`

func TestParseHistogramsAndDelta(t *testing.T) {
	before, err := parseHistograms(bufio.NewScanner(strings.NewReader(metricsText)), queueWaitHist)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 {
		t.Fatalf("parsed %d histograms, want only %s", len(before), queueWaitHist)
	}
	h := before[queueWaitHist]
	if h.Count != 5 || h.SumNs != 11 || len(h.Buckets) != 3 || h.Buckets[2].Count != 5 {
		t.Fatalf("parsed %+v", h)
	}
	// Three more observations, one in a bucket the first snapshot lacked.
	later := strings.NewReplacer(
		`le="3"} 5`, `le="3"} 7`+"\n"+`smartarrays_latency_ns_bucket{name="queryd.queue_wait",le="7"} 8`,
		`_sum{name="queryd.queue_wait"} 11`, `_sum{name="queryd.queue_wait"} 22`,
		`_count{name="queryd.queue_wait"} 5`, `_count{name="queryd.queue_wait"} 8`,
	).Replace(metricsText)
	after, err := parseHistograms(bufio.NewScanner(strings.NewReader(later)), queueWaitHist)
	if err != nil {
		t.Fatal(err)
	}
	d := histDelta(h, after[queueWaitHist])
	if d.Count != 3 || d.SumNs != 11 {
		t.Fatalf("delta %+v", d)
	}
	want := []uint64{0, 0, 2, 3}
	for i, b := range d.Buckets {
		if b.Count != want[i] {
			t.Fatalf("delta buckets %+v, want cumulative %v", d.Buckets, want)
		}
	}
}
