package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"smartarrays/internal/analytics"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// Replay sizes: how many queries of client 0's timed sequence the traced
// replay re-runs, and how often the per-run rungs repeat.
var replayQueries = map[string]int{"scan": 48, "dashboard": 256, "mixed": 64}

// Every rung's median needs minBeyond samples above it, so each repeats
// at least 2*minBeyond+1 times.
const (
	loopReps      = 200     // empty ParallelFor calls
	analyticsReps = 21      // calls of each graph kernel
	spanProbe     = 1 << 16 // start/end pairs timed for the tracer's cost
)

// replayResult is what the traced replay measured.
type replayResult struct {
	metrics  metrics
	spans    []Span
	problems []string
}

// replayer holds the in-process server the replay calls into.
type replayer struct {
	w      *Workload
	oracle *Oracle
	srv    *queryd.Server
	h      http.Handler
	rt     *rts.Runtime
	ds     *queryd.Dataset
	tr     *tracer

	// Zone-map chunk counts summed over the explain profiles.
	chunksScanned, chunksPruned uint64
	// pairs records each traced two-query MultiScan: the queries' positions
	// and the MultiScan span's ID.
	pairs [][3]int

	problems []string
}

// replay re-runs the start of client 0's timed sequence on one goroutine
// against an in-process server built like the served one (plus the
// mixed workload's graph, so every workload times the analytics rung),
// with a span around every call into a layer.
func replay(w *Workload, seed uint64, oracle *Oracle) (*replayResult, error) {
	cfg := queryd.DefaultConfig()
	// saserve's serving defaults.
	cfg.CacheEntries = w.Cache
	cfg.SharedScan = true
	cfg.ProfileSample = 16
	rt := rts.New(machine.X52Small())
	srv, err := queryd.NewServer(rt, cfg, []queryd.DatasetSpec{{
		Name: datasetName, Rows: tableRows, Vertices: mixedVertices, Seed: seed,
	}}, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("replay server: %w", err)
	}
	defer srv.Close()
	ds, err := srv.Dataset(datasetName)
	if err != nil {
		return nil, err
	}
	r := &replayer{w: w, oracle: oracle, srv: srv, h: srv.Handler(), rt: srv.Runtime(), ds: ds, tr: newTracer(true)}

	n := replayQueries[w.Name]
	st := w.NewStream(seed, clientStream)
	seq := make([]int, n)
	for i := range seq {
		seq[i] = st.Next()
	}

	m := metrics{}
	r.handlerPass(m, seq)
	r.hitPass(seq, cfg)
	r.libraryPass(seq)
	r.loopRung(len(seq))
	r.analyticsRung(len(seq) + 1)
	r.overhead(m)

	spans := r.tr.spans
	if err := validateSpans(spans); err != nil {
		r.problems = append(r.problems, "trace: "+err.Error())
	}
	ms := func(name string, scale float64, perRow bool) []float64 {
		d := durations(spans, name, perRow)
		for i := range d {
			d[i] /= scale
		}
		return d
	}
	m.pct("plan.parse_us", ms("plan.parse", 1e3, false), 0.5)
	m.pct("queryd.handler_us", ms("queryd.handler", 1e3, false), 0.5)
	m.pct("queryd.handler_hit_us", ms("queryd.handler_hit", 1e3, false), 0.5)
	m.pct("colstore.scan_ns_per_row", ms("colstore.scan", 1, true), 0.5)
	m.pct("colstore.multiscan2_ns_per_row", ms("colstore.multiscan2", 1, true), 0.5)
	m.pct("core.mask_ns_per_row", ms("core.mask", 1, true), 0.5)
	m.pct("core.fold_ns_per_row", ms("core.fold", 1, true), 0.5)
	m.pct("bitpack.mask_ns_per_row", ms("bitpack.mask", 1, true), 0.5)
	m.pct("bitpack.fold_ns_per_row", ms("bitpack.fold", 1, true), 0.5)
	m.pct("rts.loop_overhead_us", ms("rts.parallel_for", 1e3, false), 0.5)
	m.pct("analytics.pagerank_ms", ms("analytics.pagerank", 1e6, false), 0.5)
	m.pct("analytics.bfs_ms", ms("analytics.bfs", 1e6, false), 0.5)
	m.pct("analytics.degree_ms", ms("analytics.degree", 1e6, false), 0.5)
	r.multiscanRatio(m, spans)

	cols := ds.Table.Columns()
	values := float64(ds.Table.Rows()) * float64(len(cols))
	m.set("encoding.bytes_per_value", float64(ds.Table.PayloadBytes())/values,
		fmt.Sprintf("%d payload bytes / %d rows × %d columns", ds.Table.PayloadBytes(), ds.Table.Rows(), len(cols)))
	return &replayResult{metrics: m, spans: spans, problems: r.problems}, nil
}

func (r *replayer) problem(format string, args ...any) {
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// served is the part of a /query response the replay reads.
type served struct {
	Result  json.RawMessage   `json:"result"`
	Cached  bool              `json:"cached"`
	Profile *obs.QueryProfile `json:"profile"`
}

// serve calls the handler with body inside a span and decodes the reply;
// it also returns the span's ID.
func (r *replayer) serve(query, parent int, name string, body []byte) (served, int, bool) {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := r.tr.start(query, parent, name)
	r.h.ServeHTTP(rec, req)
	r.tr.end(id, 0)
	var s served
	if rec.Code != http.StatusOK {
		r.problem("replay %s: HTTP %d: %s", name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return s, id, false
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		r.problem("replay %s: decoding response: %v", name, err)
		return s, id, false
	}
	return s, id, true
}

// handlerPass times plan.Parse and the full handler for each query, in
// sequence order, so the handler sees the sequence's own cache hits.
// Allocation is read around each handler call only.
func (r *replayer) handlerPass(m metrics, seq []int) {
	var alloc uint64
	var ms runtime.MemStats
	for i, qi := range seq {
		q := r.w.Queries[qi]
		body := q.Body(false)
		root := r.tr.start(i, 0, "replay.query")
		id := r.tr.start(i, root, "plan.parse")
		_, err := plan.Parse(body)
		r.tr.end(id, 0)
		if err != nil {
			r.problem("replay: parsing %s: %v", body, err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s, _, ok := r.serve(i, root, "queryd.handler", body)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - before
		r.tr.end(root, 0)
		if ok {
			if err := r.oracle.Check(q, s.Result); err != nil {
				r.problem("replay: wrong answer to %s: %v", body, err)
			}
		}
	}
	m.set("queryd.alloc_bytes_per_query", float64(alloc)/float64(len(seq)), fmt.Sprintf("%d bytes over %d handler calls", alloc, len(seq)))
}

// hitPass times guaranteed cache hits: with the cache on (a config swap
// also starts it cold), each query is served once to fill its entry and
// once more from the cache.
func (r *replayer) hitPass(seq []int, cfg queryd.Config) {
	cfg.CacheEntries = cacheEntries
	if err := r.srv.SwapConfig(cfg); err != nil {
		r.problem("replay: enabling the cache: %v", err)
		return
	}
	for i, qi := range seq {
		body := r.w.Queries[qi].Body(false)
		root := r.tr.start(i, 0, "replay.hit")
		r.serve(i, root, "queryd.handler_fill", body)
		// Only a reply actually served from the cache counts as a hit.
		if s, id, ok := r.serve(i, root, "queryd.handler_hit", body); !ok || !s.Cached {
			r.tr.spans[id-1].Name = "queryd.handler_repeat"
		}
		r.tr.end(root, 0)
	}
}

// libraryPass calls each table query's layers directly: the colstore
// scan, the core mask and fold kernels and the bitpack chunk kernels on
// one worker, a two-query MultiScan with the next table query, and an
// "explain" request for the zone-map counts. Every result is checked
// against the oracle.
func (r *replayer) libraryPass(seq []int) {
	tr := r.tr
	tbl := r.ds.Table
	rows := tbl.Rows()
	masks := make([]uint64, (rows+63)/64)
	tmp := make([]uint64, len(masks))
	for i, qi := range seq {
		q := r.w.Queries[qi]
		if !q.IsTable() {
			continue
		}
		body := q.Body(false)
		p, err := plan.Parse(body)
		if err != nil {
			r.problem("replay: parsing %s: %v", body, err)
			continue
		}
		root := tr.start(i, 0, "replay.library")

		id := tr.start(i, root, "colstore.scan")
		res, err := scanTable(tbl, p)
		tr.end(id, rows)
		r.checkResult(q, res, err)

		target, predArrs, err := planArrays(tbl, p)
		if err != nil {
			r.problem("replay: %v", err)
			tr.end(root, 0)
			continue
		}

		// core: predicate masks over the whole table, then a masked sum.
		id = tr.start(i, root, "core.mask")
		for k, pr := range p.Preds {
			if k == 0 {
				core.MaskRange(predArrs[k], 0, 0, rows, pr.Op.Cmp(), pr.Value, masks)
			} else {
				core.MaskRangeAnd(predArrs[k], 0, 0, rows, pr.Op.Cmp(), pr.Value, masks)
			}
		}
		tr.end(id, rows)
		id = tr.start(i, root, "core.fold")
		coreSum := core.ReduceRangeMasked(target, 0, 0, rows, core.ReduceSum, masks)
		tr.end(id, rows)

		// bitpack: the same masks and sum straight from the packed words.
		chunks := uint64(len(masks))
		id = tr.start(i, root, "bitpack.mask")
		for k, pr := range p.Preds {
			codec, data := predArrs[k].Codec(), predArrs[k].GetReplica(0)
			dst := masks
			if k > 0 {
				dst = tmp
			}
			for c := uint64(0); c < chunks; c++ {
				dst[c] = codec.CmpMaskChunk(data, c, pr.Op.Cmp(), pr.Value)
			}
			if k > 0 {
				bitpack.AndMasks(masks, tmp)
			}
		}
		tr.end(id, rows)
		id = tr.start(i, root, "bitpack.fold")
		packSum := target.Codec().SumChunksMasked(target.GetReplica(0), 0, chunks, masks)
		tr.end(id, rows)
		if packSum != coreSum {
			r.problem("replay: %s: bitpack masked sum %d, core masked sum %d", body, packSum, coreSum)
		}
		if q.Op == "aggregate" && q.Agg == "sum" {
			r.checkResult(q, colstore.ScanResult{Value: coreSum}, nil)
		}

		// colstore: one cooperative pass for this query and the next
		// table query of the sequence.
		if j := nextTable(r.w, seq, i); j >= 0 {
			next := r.w.Queries[seq[j]]
			pn, err := plan.Parse(next.Body(false))
			if err == nil {
				id = tr.start(i, root, "colstore.multiscan2")
				results, err := tbl.MultiScan([]colstore.ScanQuery{scanQuery(p), scanQuery(pn)})
				tr.end(id, rows)
				r.pairs = append(r.pairs, [3]int{i, j, id})
				if err != nil {
					r.problem("replay: multiscan: %v", err)
				} else {
					r.checkResult(q, results[0], nil)
					r.checkResult(next, results[1], nil)
				}
			}
		}

		// queryd: the explain profile's per-column chunk counts.
		if s, _, ok := r.serve(i, root, "queryd.explain", q.Body(true)); ok && s.Profile != nil {
			for _, c := range s.Profile.Columns {
				r.chunksScanned += c.ChunksScanned
				r.chunksPruned += c.ChunksPruned
			}
		}
		tr.end(root, 0)
	}
}

// planArrays resolves a table plan's target and predicate columns.
func planArrays(tbl *colstore.Table, p *plan.Plan) (*core.SmartArray, []*core.SmartArray, error) {
	target, err := tbl.Column(p.Column)
	if err != nil {
		return nil, nil, err
	}
	preds := make([]*core.SmartArray, len(p.Preds))
	for k, pr := range p.Preds {
		c, err := tbl.Column(pr.Column)
		if err != nil {
			return nil, nil, err
		}
		preds[k] = c.Array()
	}
	return target.Array(), preds, nil
}

// nextTable returns the position of the first table query after i in
// seq, or -1.
func nextTable(w *Workload, seq []int, i int) int {
	for j := i + 1; j < len(seq); j++ {
		if w.Queries[seq[j]].IsTable() {
			return j
		}
	}
	return -1
}

func scanQuery(p *plan.Plan) colstore.ScanQuery {
	return colstore.ScanQuery{Agg: p.Agg, Column: p.Column, Key: p.Key, Preds: p.Preds}
}

// scanTable runs a table plan directly on colstore.
func scanTable(tbl *colstore.Table, p *plan.Plan) (colstore.ScanResult, error) {
	if p.Op == plan.OpAggregate {
		v, err := tbl.Aggregate(p.Agg, p.Column, p.Preds...)
		return colstore.ScanResult{Value: v}, err
	}
	rows, err := tbl.GroupBy(p.Key, p.Agg, p.Column, p.Preds...)
	return colstore.ScanResult{Groups: rows}, err
}

// checkResult compares a direct colstore result with the oracle.
func (r *replayer) checkResult(q Query, res colstore.ScanResult, err error) {
	if err != nil {
		r.problem("replay: %s: %v", q.Body(false), err)
		return
	}
	var wire any = queryd.AggregateResult{Value: res.Value}
	if q.Op == "groupby" {
		groups := make([]queryd.GroupResult, len(res.Groups))
		for i, g := range res.Groups {
			groups[i] = queryd.GroupResult{Key: g.Key, Value: g.Value}
		}
		wire = queryd.GroupByResult{Groups: groups}
	}
	raw, err := json.Marshal(wire)
	if err != nil {
		r.problem("replay: %v", err)
		return
	}
	if err := r.oracle.Check(q, raw); err != nil {
		r.problem("replay: direct colstore answer to %s: %v", q.Body(false), err)
	}
}

// loopRung times empty ParallelFor loops over the table on the served
// runtime: the scheduler's per-loop cost with no work in it.
func (r *replayer) loopRung(query int) {
	rows := r.ds.Table.Rows()
	root := r.tr.start(query, 0, "replay.rts")
	for k := 0; k < loopReps; k++ {
		id := r.tr.start(query, root, "rts.parallel_for")
		r.rt.ParallelFor(0, rows, 0, func(*rts.Worker, uint64, uint64) {})
		r.tr.end(id, 0)
	}
	r.tr.end(root, 0)
}

// analyticsRung calls the graph kernels directly on the served runtime:
// degree centrality, BFS from the mixed workload's sources, and
// PageRank with its iteration bound.
func (r *replayer) analyticsRung(query int) {
	g := r.ds.Graph
	root := r.tr.start(query, 0, "replay.analytics")
	defer r.tr.end(root, 0)
	for k := 0; k < analyticsReps; k++ {
		id := r.tr.start(query, root, "analytics.degree")
		out, _, err := analytics.DegreeCentrality(r.rt, g)
		r.tr.end(id, 0)
		if err != nil {
			r.problem("replay: degree: %v", err)
			return
		}
		out.Free()

		src := uint64(k) * (g.NumVertices / analyticsReps)
		id = r.tr.start(query, root, "analytics.bfs")
		_, _, _, err = analytics.BFS(r.rt, g, src)
		r.tr.end(id, 0)
		if err != nil {
			r.problem("replay: bfs: %v", err)
			return
		}

		cfg := analytics.DefaultPageRankConfig()
		cfg.MaxIters = pageRankIters
		id = r.tr.start(query, root, "analytics.pagerank")
		_, _, _, err = analytics.PageRank(r.rt, g, cfg)
		r.tr.end(id, 0)
		if err != nil {
			r.problem("replay: pagerank: %v", err)
			return
		}
	}
}

// overhead reports the tracer's cost as a share of the traced replay:
// the replay's span count times the extra cost of one span with tracing
// on over tracing off (timed over spanProbe start/end pairs each), over
// the total time of the replay's root spans. It also reports the
// zone-pruned share gathered by the traced library pass.
func (r *replayer) overhead(m metrics) {
	probe := func(on bool) float64 {
		t := newTracer(on)
		t.spans = make([]Span, 0, spanProbe)
		start := time.Now()
		for k := 0; k < spanProbe; k++ {
			t.end(t.start(0, 0, "probe"), 0)
		}
		return float64(time.Since(start).Nanoseconds()) / spanProbe
	}
	perSpan := probe(true) - probe(false)
	var traced float64
	for _, s := range r.tr.spans {
		if s.Parent == 0 {
			traced += float64(s.Dur())
		}
	}
	n := float64(len(r.tr.spans))
	m.set("trace.overhead_pct", 100*n*perSpan/traced,
		fmt.Sprintf("%.0f spans × %.1fns over %.3gs traced", n, perSpan, traced/1e9))
	total := r.chunksScanned + r.chunksPruned
	if total == 0 {
		m.fail("core.zone_pruned_share", fmt.Errorf("no explain profile reported chunks"))
		return
	}
	m.set("core.zone_pruned_share", float64(r.chunksPruned)/float64(total),
		fmt.Sprintf("%d of %d column chunks pruned", r.chunksPruned, total))
}

// multiscanRatio compares each two-query MultiScan with the two
// independent colstore scans of the same queries.
func (r *replayer) multiscanRatio(m metrics, spans []Span) {
	scan := map[int]int64{}
	for _, s := range spans {
		if s.Name == "colstore.scan" {
			scan[s.Query] = s.Dur()
		}
	}
	var ratios []float64
	for _, p := range r.pairs {
		if a, b := scan[p[0]], scan[p[1]]; a > 0 && b > 0 {
			ratios = append(ratios, float64(spans[p[2]-1].Dur())/float64(a+b))
		}
	}
	m.pct("colstore.multiscan2_vs_two_scans", ratios, 0.5)
}
