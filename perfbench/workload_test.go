package main

import (
	"container/list"
	"reflect"
	"testing"
)

// draws returns the first n draws of stream id.
func draws(w *Workload, seed, id uint64, n int) []int {
	s := w.NewStream(seed, id)
	out := make([]int, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestWorkloadsDeterministicPerSeed(t *testing.T) {
	for _, name := range WorkloadNames {
		a, err := NewWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewWorkload(name, 7)
		c, _ := NewWorkload(name, 8)
		if !reflect.DeepEqual(a.Queries, b.Queries) {
			t.Errorf("%s: same seed, different query pools", name)
		}
		if reflect.DeepEqual(a.Queries[:64], c.Queries[:64]) {
			t.Errorf("%s: seeds 7 and 8 generate the same pool", name)
		}
		if !reflect.DeepEqual(a.WarmupSequence(7), b.WarmupSequence(7)) {
			t.Errorf("%s: same seed, different warm-up", name)
		}
		if !reflect.DeepEqual(draws(a, 7, clientStream, 500), draws(b, 7, clientStream, 500)) {
			t.Errorf("%s: same seed, different client draws", name)
		}
		if reflect.DeepEqual(draws(a, 7, clientStream, 500), draws(a, 7, clientStream+1, 500)) {
			t.Errorf("%s: two clients draw the same sequence", name)
		}
	}
}

func TestDistinctPlanCounts(t *testing.T) {
	want := map[string]int{
		"scan":      scanPoolSize,
		"dashboard": panelCount,
		"mixed":     scanPoolSize + 2 + bfsSources,
	}
	for _, name := range WorkloadNames {
		w, err := NewWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, q := range w.Queries {
			seen[q.Ident()] = true
		}
		if len(w.Queries) != want[name] || len(seen) != want[name] {
			t.Errorf("%s: %d queries, %d distinct, want %d", name, len(w.Queries), len(seen), want[name])
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := NewWorkload("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// lruHits replays keys through an LRU of the given capacity and returns
// the hits among the last measured keys.
func lruHits(keys []int, capacity, measured int) int {
	lru := list.New()
	pos := map[int]*list.Element{}
	hits := 0
	for i, k := range keys {
		if e, ok := pos[k]; ok {
			lru.MoveToFront(e)
			if i >= len(keys)-measured {
				hits++
			}
			continue
		}
		pos[k] = lru.PushFront(k)
		if lru.Len() > capacity {
			delete(pos, lru.Remove(lru.Back()).(int))
		}
	}
	return hits
}

// TestCacheHitRates simulates the server's result cache over a warm-up
// and an interleaved two-client window of typical length.
func TestCacheHitRates(t *testing.T) {
	cases := []struct {
		name     string
		measured int
		lo, hi   float64
	}{
		{"scan", 3000, 0.07, 0.13},
		{"dashboard", 100000, 0.80, 0.90},
	}
	for _, c := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			w, err := NewWorkload(c.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			keys := w.WarmupSequence(seed)
			a := draws(w, seed, clientStream, c.measured/2)
			b := draws(w, seed, clientStream+1, c.measured/2)
			for i := range a {
				keys = append(keys, a[i], b[i])
			}
			rate := float64(lruHits(keys, w.Cache, c.measured)) / float64(c.measured)
			if rate < c.lo || rate > c.hi {
				t.Errorf("%s seed %d: simulated hit rate %.3f outside [%.2f, %.2f]", c.name, seed, rate, c.lo, c.hi)
			}
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	scan, _ := NewWorkload("scan", 5)
	for _, q := range scan.Queries {
		if !q.IsTable() || len(q.Where) == 0 || q.Where[0].Column != "amount" {
			t.Fatalf("scan plan without an amount predicate: %+v", q)
		}
		if v := q.Where[0].Value; v < amountDomain/16 || v >= amountDomain-amountDomain/16 {
			t.Fatalf("scan threshold %d outside the middle of the domain", v)
		}
	}
	dash, _ := NewWorkload("dashboard", 5)
	for _, q := range dash.Queries {
		lo, hi := q.Where[0].Value, q.Where[1].Value
		if q.Where[0].Column != "id" || q.Where[1].Column != "id" || hi <= lo || hi-lo > tableRows/100 || hi > tableRows {
			t.Fatalf("panel is not a ≤1%% id range: %+v", q)
		}
	}
	mixed, _ := NewWorkload("mixed", 5)
	ops := map[string]int{}
	for _, qi := range draws(mixed, 5, clientStream, 30000) {
		ops[mixed.Queries[qi].Op]++
	}
	table := float64(ops["aggregate"]+ops["groupby"]) / 30000
	if table < 0.58 || table > 0.62 {
		t.Errorf("mixed table share %.3f, want ~0.6", table)
	}
	for op, want := range map[string]float64{"degree": 0.16, "pagerank": 0.08, "bfs": 0.16} {
		if share := float64(ops[op]) / 30000; share < want-0.01 || share > want+0.01 {
			t.Errorf("mixed %s share %.3f, want %.2f", op, share, want)
		}
	}
}
