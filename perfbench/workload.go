package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Dataset shape shared by every workload: the served demo table has
// 1 Mi rows with columns id (row number), region (16 values), amount
// (uniform in [0, 65536)) and flag (1 on ~25% of rows).
const (
	datasetName  = "demo"
	tableRows    = 1 << 20
	amountDomain = 65536
	regionDomain = 16

	// cacheEntries is the serving result cache size (saserve's default).
	cacheEntries = 1024
	// scanPoolSize is the number of distinct scan plans: uniform draws
	// over 10× the cache keep the steady-state hit rate near 10%.
	scanPoolSize = 10 * cacheEntries
	// panelCount is the number of dashboard panels, 4× the cache.
	panelCount = 4 * cacheEntries
	// zipfS is the dashboard's panel popularity skew.
	zipfS = 1.1
	// mixedVertices sizes the mixed workload's graph.
	mixedVertices = 100000
	// bfsSources is the pool of random BFS sources in the mixed workload.
	bfsSources = 256
	// pageRankIters is the mixed workload's per-query PageRank bound.
	pageRankIters = 5
)

// Pred is one wire predicate.
type Pred struct {
	Column string `json:"column"`
	Op     string `json:"op"`
	Value  uint64 `json:"value"`
}

// Query is one generated request. Table queries set Agg/Column (and Key
// for groupby); graph queries set Iters or Source.
type Query struct {
	Op       string
	Agg      string
	Column   string
	Key      string
	Where    []Pred
	Iters    int
	Source   uint64
	Priority int
}

// IsTable reports whether q runs on the table (aggregate or groupby).
func (q Query) IsTable() bool { return q.Op == "aggregate" || q.Op == "groupby" }

// Body renders q as a /query request body; explain asks the server for
// the inline execution profile.
func (q Query) Body(explain bool) []byte {
	m := map[string]any{"dataset": datasetName, "op": q.Op}
	switch q.Op {
	case "aggregate", "groupby":
		m["agg"] = q.Agg
		m["column"] = q.Column
		if q.Key != "" {
			m["key"] = q.Key
		}
		if len(q.Where) > 0 {
			m["where"] = q.Where
		}
	case "pagerank":
		m["iters"] = q.Iters
	case "bfs":
		m["source"] = q.Source
	}
	if q.Priority != 0 {
		m["priority"] = q.Priority
	}
	if explain {
		m["explain"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return b
}

// Ident is q's canonical identity: two queries with equal keys have the
// same answer. Predicates are sorted because conjunctions commute.
func (q Query) Ident() string {
	preds := make([]string, len(q.Where))
	for i, p := range q.Where {
		preds[i] = fmt.Sprintf("%s%s%d", p.Column, p.Op, p.Value)
	}
	sort.Strings(preds)
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d", q.Op, q.Agg, q.Column, q.Key, strings.Join(preds, "&"), q.Iters, q.Source)
}

// Workload is one traffic mix: the server it needs, the distinct queries
// it draws from, and how draws are made.
type Workload struct {
	Name string
	// Vertices sizes the served graph (0 = table only).
	Vertices uint64
	// Cache is the server's result cache size (0 = off).
	Cache int
	// Queries is the distinct-query pool; draws return indexes into it.
	Queries []Query
	// Warmup is the number of queries issued before timing, by
	// WarmupClients closed-loop clients.
	Warmup        int
	WarmupClients int

	draw func(s *Stream) int
	// warmOrder, when set, replaces warm-up draws with a fixed sequence
	// of distinct queries (scan fills the cache with distinct plans).
	warmOrder []int
}

// Stream is one deterministic sequence of draws (a client, the
// warm-up). Streams are not safe for concurrent use.
type Stream struct {
	w *Workload
	r *rand.Rand
	z *rand.Zipf
}

// NewStream returns the workload's draw stream number id under seed.
func (w *Workload) NewStream(seed, id uint64) *Stream {
	r := rand.New(rand.NewSource(streamSeed(seed, id)))
	return &Stream{w: w, r: r, z: rand.NewZipf(r, zipfS, 1, panelCount-1)}
}

// Next returns the pool index of the stream's next query.
func (s *Stream) Next() int { return s.w.draw(s) }

// ServerArgs returns the saserve flags the workload runs under; every
// other setting stays at saserve's defaults.
func (w *Workload) ServerArgs(seed uint64) []string {
	return []string{
		"-rows", fmt.Sprint(tableRows),
		"-vertices", fmt.Sprint(w.Vertices),
		"-cache", fmt.Sprint(w.Cache),
		"-seed", fmt.Sprint(seed),
	}
}

// WarmupSequence returns the warm-up query indexes.
func (w *Workload) WarmupSequence(seed uint64) []int {
	if w.warmOrder != nil {
		return w.warmOrder
	}
	s := w.NewStream(seed, warmupStream)
	seq := make([]int, w.Warmup)
	for i := range seq {
		seq[i] = s.Next()
	}
	return seq
}

// WorkloadNames lists the workloads the command runs. BENCHMARK.json
// lists scan and mixed; dashboard is for runs by hand, since its qps and
// p99 on a 2-vCPU host spread more from run to run than a bound allows
// (see README.md).
var WorkloadNames = []string{"scan", "dashboard", "mixed"}

// NewWorkload generates the named workload from seed.
func NewWorkload(name string, seed uint64) (*Workload, error) {
	r := rand.New(rand.NewSource(streamSeed(seed, poolStream)))
	switch name {
	case "scan":
		pool := scanPool(r)
		w := &Workload{Name: name, Cache: cacheEntries, Queries: pool, WarmupClients: 16}
		w.draw = func(s *Stream) int { return s.r.Intn(len(pool)) }
		// Warm-up issues cacheEntries distinct plans, so the cache is full
		// when timing starts.
		w.warmOrder = r.Perm(len(pool))[:cacheEntries]
		w.Warmup = len(w.warmOrder)
		return w, nil
	case "dashboard":
		pool := dashboardPool(r)
		w := &Workload{Name: name, Cache: cacheEntries, Queries: pool, Warmup: 2 * panelCount, WarmupClients: 2}
		// Panels are generated independently at random, so Zipf rank k
		// can simply be panel k.
		w.draw = func(s *Stream) int { return int(s.z.Uint64()) }
		return w, nil
	case "mixed":
		pool := scanPool(r)
		nTable := len(pool)
		pool = append(pool,
			Query{Op: "degree"},
			Query{Op: "pagerank", Iters: pageRankIters, Priority: -1})
		firstBFS := len(pool)
		for _, src := range r.Perm(mixedVertices)[:bfsSources] {
			pool = append(pool, Query{Op: "bfs", Source: uint64(src)})
		}
		w := &Workload{Name: name, Vertices: mixedVertices, Cache: 0, Queries: pool, Warmup: 256, WarmupClients: 2}
		w.draw = func(s *Stream) int {
			// 60% table scans, 16% degree, 16% BFS and 8% PageRank: the
			// graph queries take about 40% of the busy time, PageRank
			// (the costliest, ~4x a scan) half of that.
			u := s.r.Float64()
			switch {
			case u < 0.60:
				return s.r.Intn(nTable)
			case u < 0.76:
				return nTable // degree
			case u < 0.84:
				return nTable + 1 // pagerank
			default:
				return firstBFS + s.r.Intn(bfsSources)
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(WorkloadNames, ", "))
}

var aggs = []string{"sum", "count", "max"}

// scanPool generates scanPoolSize distinct full-table plans: aggregates
// and groupby-region over amount with one or two predicates on the
// uniform columns amount/region/flag. Amount thresholds are drawn from
// the middle of the domain, where no 64-row chunk's min/max zone can
// resolve them, so zone maps prune (almost) nothing.
func scanPool(r *rand.Rand) []Query {
	seen := map[string]bool{}
	pool := make([]Query, 0, scanPoolSize)
	for len(pool) < scanPoolSize {
		q := Query{Op: "aggregate", Agg: aggs[r.Intn(len(aggs))], Column: "amount"}
		if r.Intn(4) == 0 {
			q.Op, q.Key = "groupby", "region"
		}
		// Always an amount threshold, plus half the time a second
		// predicate on region or flag.
		lo := uint64(amountDomain / 16)
		t := lo + uint64(r.Int63n(amountDomain-2*int64(lo)))
		q.Where = append(q.Where, Pred{"amount", []string{"<", ">="}[r.Intn(2)], t})
		if r.Intn(2) == 0 {
			if r.Intn(2) == 0 {
				q.Where = append(q.Where, Pred{"region", []string{"<", ">="}[r.Intn(2)], uint64(1 + r.Intn(regionDomain-1))})
			} else {
				q.Where = append(q.Where, Pred{"flag", "=", uint64(r.Intn(2))})
			}
		}
		if k := q.Ident(); !seen[k] {
			seen[k] = true
			pool = append(pool, q)
		}
	}
	return pool
}

// dashboardPool generates panelCount distinct panels: an aggregate or
// groupby-region over a ≤1% range of the sorted id column, sometimes
// with one more predicate — selective scans that zone maps prune.
func dashboardPool(r *rand.Rand) []Query {
	seen := map[string]bool{}
	pool := make([]Query, 0, panelCount)
	for len(pool) < panelCount {
		q := Query{Op: "aggregate", Agg: aggs[r.Intn(len(aggs))], Column: "amount"}
		if r.Intn(3) == 0 {
			q.Op, q.Key = "groupby", "region"
		}
		width := uint64(tableRows/1000 + r.Intn(tableRows/100-tableRows/1000+1))
		lo := uint64(r.Int63n(int64(tableRows - width + 1)))
		q.Where = []Pred{{"id", ">=", lo}, {"id", "<", lo + width}}
		switch r.Intn(4) {
		case 0:
			q.Where = append(q.Where, Pred{"flag", "=", 1})
		case 1:
			q.Where = append(q.Where, Pred{"amount", ">=", uint64(r.Intn(amountDomain))})
		}
		if k := q.Ident(); !seen[k] {
			seen[k] = true
			pool = append(pool, q)
		}
	}
	return pool
}

// splitmix64 decorrelates adjacent seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Stream ids: the pool generator, the warm-up, then one per client.
const (
	poolStream   = 0
	warmupStream = 1
	clientStream = 2
)

// streamSeed derives the math/rand seed of one stream (pool generation,
// a client, the warm-up) from the benchmark seed.
func streamSeed(seed uint64, stream uint64) int64 {
	return int64(splitmix64(seed*0x9E3779B97F4A7C15 + stream))
}
