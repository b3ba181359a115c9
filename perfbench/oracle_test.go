package main

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"smartarrays/internal/analytics"
	"smartarrays/internal/machine"
	"smartarrays/internal/queryd"
	"smartarrays/internal/rts"
)

const testSeed = 11

// testVertices keeps the oracle tests' graph small.
const testVertices = 3000

var (
	oracleOnce sync.Once
	oracleVal  *Oracle
	oracleErr  error
)

// testOracle builds one shared oracle for the package's tests.
func testOracle(t *testing.T) *Oracle {
	t.Helper()
	oracleOnce.Do(func() { oracleVal, oracleErr = NewOracle(testSeed, testVertices) })
	if oracleErr != nil {
		t.Fatal(oracleErr)
	}
	return oracleVal
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOracleIndexMatchesRowLoop cross-checks the prefix-sum answers with
// the plain row loop on generated scan plans and hand-picked edge cases.
func TestOracleIndexMatchesRowLoop(t *testing.T) {
	o := testOracle(t)
	w, _ := NewWorkload("scan", testSeed)
	queries := append([]Query(nil), w.Queries[:200]...)
	queries = append(queries,
		Query{Op: "aggregate", Agg: "max", Column: "amount", Where: []Pred{{"amount", "<", 0}}},
		Query{Op: "aggregate", Agg: "max", Column: "amount", Where: []Pred{{"amount", "<=", 1 << 40}}},
		Query{Op: "aggregate", Agg: "count", Column: "amount", Where: []Pred{{"amount", "=", 12345}, {"flag", "=", 1}}},
		Query{Op: "aggregate", Agg: "sum", Column: "amount", Where: []Pred{{"amount", ">", 65535}}},
		Query{Op: "groupby", Agg: "max", Column: "amount", Key: "region", Where: []Pred{{"region", ">=", 16}}},
		Query{Op: "groupby", Agg: "sum", Column: "amount", Key: "region", Where: []Pred{{"region", "!=", 3}, {"amount", ">=", 60000}}},
	)
	for _, q := range queries {
		if !o.indexable(q) {
			t.Fatalf("scan plan not answered by the index: %+v", q)
		}
		ig, it, err := o.tableIndexed(q)
		if err != nil {
			t.Fatal(err)
		}
		rg, rt, err := o.tableRows(q)
		if err != nil {
			t.Fatal(err)
		}
		if it != rt {
			t.Fatalf("%s: index %+v, rows %+v", q.Body(false), it, rt)
		}
		if q.Op != "groupby" {
			continue
		}
		if len(ig) != len(rg) {
			t.Fatalf("%s: index %d groups, rows %d", q.Body(false), len(ig), len(rg))
		}
		for k, g := range rg {
			if *ig[k] != *g {
				t.Fatalf("%s: group %d index %+v, rows %+v", q.Body(false), k, *ig[k], *g)
			}
		}
	}
}

// TestOracleAgreesWithEngine checks oracle answers against the server
// under test, in process, for every workload's query shapes.
func TestOracleAgreesWithEngine(t *testing.T) {
	o := testOracle(t)
	cfg := queryd.DefaultConfig()
	srv, err := queryd.NewServer(rts.New(machine.X52Small()), cfg, []queryd.DatasetSpec{{
		Name: datasetName, Rows: tableRows, Vertices: testVertices, Seed: testSeed,
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ds, _ := srv.Dataset(datasetName)
	if err := o.CheckMeta(ds.Meta()); err != nil {
		t.Fatal(err)
	}
	r := &replayer{oracle: o, srv: srv, h: srv.Handler(), tr: newTracer(false)}
	for _, name := range WorkloadNames {
		w, _ := NewWorkload(name, testSeed)
		r.w = w
		// Every graph query, and a slice of the table queries.
		var picks []int
		for qi, q := range w.Queries {
			if !q.IsTable() && (q.Op != "bfs" || q.Source < testVertices) || qi < 40 {
				picks = append(picks, qi)
			}
		}
		for _, qi := range picks {
			q := w.Queries[qi]
			s, _, ok := r.serve(0, 0, "check", q.Body(false))
			if !ok {
				t.Fatalf("%s: serving %s failed: %v", name, q.Body(false), r.problems)
			}
			if err := o.Check(q, s.Result); err != nil {
				t.Fatalf("%s: %s: %v", name, q.Body(false), err)
			}
		}
	}
}

func TestOracleRejectsCorruptedResults(t *testing.T) {
	o := testOracle(t)
	agg := Query{Op: "aggregate", Agg: "sum", Column: "amount", Where: []Pred{{"amount", "<", 30000}}}
	grp := Query{Op: "groupby", Agg: "count", Column: "amount", Key: "region", Where: []Pred{{"flag", "=", 1}}}
	for _, q := range []Query{agg, grp, {Op: "degree"}, {Op: "bfs", Source: 7}, {Op: "pagerank", Iters: 5}} {
		want, err := o.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if q.Op == "pagerank" {
			want = o.pageRankWire(t, want.(pageRankAnswer))
		}
		good := mustJSON(t, want)
		if err := o.Check(q, good); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", q.Op, err)
		}
		for _, bad := range corruptions(t, q, want) {
			if err := o.Check(q, bad); err == nil {
				t.Errorf("%s: corrupted answer %s accepted", q.Op, bad)
			}
		}
	}
	if err := o.Check(agg, json.RawMessage(`{"value":`)); err == nil {
		t.Error("truncated result accepted")
	}
}

// pageRankWire renders the reference ranks as the server would.
func (o *Oracle) pageRankWire(t *testing.T, a pageRankAnswer) queryd.PageRankResult {
	t.Helper()
	res := queryd.PageRankResult{Iters: a.iters, RankSum: a.rankSum}
	best := 0
	for v, r := range a.ranks {
		if r > a.ranks[best] {
			best = v
		}
	}
	res.Top = []queryd.VertexRank{{Vertex: uint64(best), Rank: a.ranks[best]}}
	return res
}

// corruptions returns wrong variants of a correct wire answer.
func corruptions(t *testing.T, q Query, want any) []json.RawMessage {
	switch w := want.(type) {
	case queryd.AggregateResult:
		return []json.RawMessage{mustJSON(t, queryd.AggregateResult{Value: w.Value + 1})}
	case queryd.GroupByResult:
		off := append([]queryd.GroupResult(nil), w.Groups...)
		off[3].Value++
		return []json.RawMessage{
			mustJSON(t, queryd.GroupByResult{Groups: w.Groups[1:]}),
			mustJSON(t, queryd.GroupByResult{Groups: off}),
		}
	case queryd.DegreeResult:
		return []json.RawMessage{mustJSON(t, queryd.DegreeResult{DegreeSum: w.DegreeSum - 2, MaxDegree: w.MaxDegree})}
	case queryd.BFSResult:
		return []json.RawMessage{
			mustJSON(t, queryd.BFSResult{Source: w.Source, Reached: w.Reached + 1, Levels: w.Levels}),
			mustJSON(t, queryd.BFSResult{Source: w.Source, Reached: w.Reached, Levels: w.Levels + 1}),
		}
	case queryd.PageRankResult:
		mass := w
		mass.RankSum *= 1.001
		top := w
		top.Top = []queryd.VertexRank{{Vertex: w.Top[0].Vertex, Rank: w.Top[0].Rank * 0.999}}
		iters := w
		iters.Iters++
		return []json.RawMessage{mustJSON(t, mass), mustJSON(t, top), mustJSON(t, iters)}
	}
	t.Fatalf("no corruptions for %s", q.Op)
	return nil
}

// TestOracleGraphMatchesKernels checks the plain-CSR graph answers
// against the smart-array kernels run directly.
func TestOracleGraphMatchesKernels(t *testing.T) {
	o := testOracle(t)
	rt := rts.New(machine.X52Small())
	ds, err := queryd.BuildDataset(rt, queryd.DatasetSpec{Name: datasetName, Vertices: testVertices, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Free()
	for _, src := range []uint64{0, 1, 17, testVertices - 1} {
		levels, depth, _, err := analytics.BFS(rt, ds.Graph, src)
		if err != nil {
			t.Fatal(err)
		}
		want := queryd.BFSResult{Source: src, Levels: depth}
		for _, l := range levels {
			if l >= 0 {
				want.Reached++
			}
		}
		if err := o.Check(Query{Op: "bfs", Source: src}, mustJSON(t, want)); err != nil {
			t.Errorf("bfs from %d: %v", src, err)
		}
	}
	if _, err := o.Answer(Query{Op: "bfs", Source: testVertices}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range source: err = %v", err)
	}
}
