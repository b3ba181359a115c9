package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"smartarrays/internal/obs"
	"smartarrays/internal/queryd"
)

// serverCounters is a snapshot of the server's own counters: the /stats
// cache and shared-scan blocks plus the raw histograms behind /metrics.
type serverCounters struct {
	Cache      queryd.CacheStats      `json:"cache"`
	SharedScan queryd.SharedScanStats `json:"shared_scan"`
	hists      map[string]obs.HistogramSnapshot
}

// Server-side histograms read from /metrics.
const (
	queueWaitHist   = queryd.QueueWaitHistogram
	sharedBatchHist = queryd.SharedBatchHistogram
)

func fetchCounters(addr string) (serverCounters, error) {
	var c serverCounters
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return c, fmt.Errorf("fetching /stats: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&c)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("decoding /stats: %w", err)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		return c, fmt.Errorf("fetching /metrics: %w", err)
	}
	defer resp.Body.Close()
	c.hists, err = parseHistograms(bufio.NewScanner(resp.Body), queueWaitHist, sharedBatchHist)
	return c, err
}

// parseHistograms extracts the named smartarrays_latency_ns histograms
// from Prometheus text.
func parseHistograms(sc *bufio.Scanner, names ...string) (map[string]obs.HistogramSnapshot, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]obs.HistogramSnapshot{}
	for sc.Scan() {
		line := sc.Text()
		series, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(series, "smartarrays_latency_ns_") {
			continue
		}
		metric, labels, _ := strings.Cut(series, "{")
		name := labelValue(labels, "name")
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		h := out[name]
		switch metric {
		case "smartarrays_latency_ns_bucket":
			le := labelValue(labels, "le")
			if le == "+Inf" {
				break
			}
			leNs, err := strconv.ParseUint(le, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("parsing bucket bound in %q: %w", line, err)
			}
			h.Buckets = append(h.Buckets, obs.HistBucket{LeNs: leNs, Count: uint64(v)})
		case "smartarrays_latency_ns_sum":
			h.SumNs = uint64(v)
		case "smartarrays_latency_ns_count":
			h.Count = uint64(v)
		}
		out[name] = h
	}
	return out, sc.Err()
}

// labelValue returns one label's value from a Prometheus label list
// (`a="x",b="y"}`).
func labelValue(labels, key string) string {
	_, rest, ok := strings.Cut(labels, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// histDelta returns the observations after recorded since before.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	prev := map[uint64]uint64{}
	for _, b := range before.Buckets {
		prev[b.LeNs] = b.Count
	}
	d := obs.HistogramSnapshot{Count: after.Count - before.Count, SumNs: after.SumNs - before.SumNs}
	// Cumulative counts stay cumulative under subtraction; a bucket
	// absent before carries the previous highest bucket's count.
	var carry uint64
	for _, b := range after.Buckets {
		if c, ok := prev[b.LeNs]; ok {
			carry = c
		}
		d.Buckets = append(d.Buckets, obs.HistBucket{LeNs: b.LeNs, Count: b.Count - carry})
	}
	return d
}
