package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"smartarrays/internal/analytics"
	"smartarrays/internal/core"
	"smartarrays/internal/graph"
	"smartarrays/internal/machine"
	"smartarrays/internal/queryd"
	"smartarrays/internal/rts"
)

// columnNames lists the demo table's columns in catalog order.
var columnNames = []string{"id", "region", "amount", "flag"}

// flagDomain is the flag column's value count (0 and 1).
const flagDomain = 2

// Oracle answers every generated query by execution independent of the
// engine under test: it builds the served dataset in process, reads the
// raw column values back, and answers table queries from prefix sums
// over (region, flag, amount) or, for the id-range and other shapes, by
// a plain row loop. Graph queries run over the plain CSR the served
// graph is built from. Not safe for concurrent use.
type Oracle struct {
	rows uint64
	cols map[string][]uint64
	sums map[string]uint64
	// prefCnt[g][a] / prefSum[g][a] count and sum the rows of group
	// g = region*flagDomain+flag whose amount is below a.
	prefCnt [regionDomain * flagDomain][]uint32
	prefSum [regionDomain * flagDomain][]uint64

	csr *graph.CSR

	memo map[string]any
}

// NewOracle builds the dataset saserve serves for seed, with the given
// graph size (0 = no graph).
func NewOracle(seed, vertices uint64) (*Oracle, error) {
	rt := rts.New(machine.X52Small())
	ds, err := queryd.BuildDataset(rt, queryd.DatasetSpec{
		Name: datasetName, Rows: tableRows, Vertices: vertices, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: building dataset: %w", err)
	}
	defer ds.Free()

	o := &Oracle{rows: ds.Rows, cols: map[string][]uint64{}, sums: map[string]uint64{}, memo: map[string]any{}}
	for _, meta := range ds.Columns {
		col, err := ds.Table.Column(meta.Name)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		vals := make([]uint64, ds.Rows)
		core.ReadRange(col.Array(), 0, 0, ds.Rows, vals)
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		if sum != meta.Sum {
			return nil, fmt.Errorf("oracle: column %s reads back with sum %d, built with %d", meta.Name, sum, meta.Sum)
		}
		o.cols[meta.Name] = vals
		o.sums[meta.Name] = sum
	}
	for _, name := range columnNames {
		if o.cols[name] == nil {
			return nil, fmt.Errorf("oracle: dataset has no column %q", name)
		}
	}
	o.buildIndex()

	if vertices > 0 {
		// BuildDataset's graph: power law, degree 8, alpha 2.1, seed+1.
		csr, err := graph.GeneratePowerLaw(vertices, 8, 2.1, int64(seed)+1)
		if err != nil {
			return nil, fmt.Errorf("oracle: generating graph: %w", err)
		}
		if csr.NumEdges != ds.Edges {
			return nil, fmt.Errorf("oracle: plain graph has %d edges, served graph %d", csr.NumEdges, ds.Edges)
		}
		o.csr = csr
	}
	return o, nil
}

func (o *Oracle) buildIndex() {
	region, flag, amount := o.cols["region"], o.cols["flag"], o.cols["amount"]
	for g := range o.prefCnt {
		o.prefCnt[g] = make([]uint32, amountDomain+1)
		o.prefSum[g] = make([]uint64, amountDomain+1)
	}
	for i := range amount {
		g := region[i]*flagDomain + flag[i]
		o.prefCnt[g][amount[i]+1]++
		o.prefSum[g][amount[i]+1] += amount[i]
	}
	for g := range o.prefCnt {
		c, s := o.prefCnt[g], o.prefSum[g]
		for a := 1; a <= amountDomain; a++ {
			c[a] += c[a-1]
			s[a] += s[a-1]
		}
	}
}

// CheckMeta compares the served catalog entry with the in-process build:
// a mismatch means server and oracle disagree on seed or generator.
func (o *Oracle) CheckMeta(m queryd.Meta) error {
	if m.Rows != o.rows {
		return fmt.Errorf("served table has %d rows, oracle %d", m.Rows, o.rows)
	}
	for _, c := range m.Columns {
		if want, ok := o.sums[c.Name]; !ok || want != c.Sum {
			return fmt.Errorf("served column %s has sum %d, oracle %d", c.Name, c.Sum, want)
		}
	}
	var edges uint64
	if o.csr != nil {
		edges = o.csr.NumEdges
	}
	if m.Edges != edges {
		return fmt.Errorf("served graph has %d edges, oracle %d", m.Edges, edges)
	}
	return nil
}

// Check compares a served result (the response's "result" field) with
// q's independently computed answer.
func (o *Oracle) Check(q Query, raw json.RawMessage) error {
	want, err := o.Answer(q)
	if err != nil {
		return err
	}
	switch w := want.(type) {
	case queryd.AggregateResult:
		var got queryd.AggregateResult
		return compareDecoded(raw, &got, w)
	case queryd.GroupByResult:
		var got queryd.GroupByResult
		return compareDecoded(raw, &got, w)
	case queryd.DegreeResult:
		var got queryd.DegreeResult
		return compareDecoded(raw, &got, w)
	case queryd.BFSResult:
		var got queryd.BFSResult
		return compareDecoded(raw, &got, w)
	case pageRankAnswer:
		var got queryd.PageRankResult
		if err := json.Unmarshal(raw, &got); err != nil {
			return fmt.Errorf("decoding pagerank result: %w", err)
		}
		return w.check(got)
	}
	return fmt.Errorf("no check for %T", want)
}

func compareDecoded[T any](raw json.RawMessage, got *T, want T) error {
	if err := json.Unmarshal(raw, got); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if !reflect.DeepEqual(*got, want) {
		return fmt.Errorf("got %+v, want %+v", *got, want)
	}
	return nil
}

// Answer returns q's expected result in the server's wire types
// (memoized by query key).
func (o *Oracle) Answer(q Query) (any, error) {
	k := q.Ident()
	if a, ok := o.memo[k]; ok {
		return a, nil
	}
	var a any
	var err error
	switch q.Op {
	case "aggregate", "groupby":
		a, err = o.table(q)
	case "degree":
		a, err = o.degree()
	case "bfs":
		a, err = o.bfs(q.Source)
	case "pagerank":
		a, err = o.pageRank(q.Iters)
	default:
		err = fmt.Errorf("oracle: unknown op %q", q.Op)
	}
	if err != nil {
		return nil, err
	}
	o.memo[k] = a
	return a, nil
}

// aggAcc folds one aggregate the way colstore does: max of no rows is 0.
type aggAcc struct{ sum, count, max uint64 }

func (a *aggAcc) add(v uint64) {
	a.sum += v
	a.count++
	if v > a.max {
		a.max = v
	}
}

func (a *aggAcc) merge(b aggAcc) {
	a.sum += b.sum
	a.count += b.count
	if b.max > a.max {
		a.max = b.max
	}
}

func (a aggAcc) result(agg string) (uint64, error) {
	switch agg {
	case "sum":
		return a.sum, nil
	case "count":
		return a.count, nil
	case "max":
		return a.max, nil
	}
	return 0, fmt.Errorf("oracle: unsupported agg %q", agg)
}

// cmp evaluates "v op t" with the wire operator symbols.
func cmp(op string, v, t uint64) (bool, error) {
	switch op {
	case "=", "==":
		return v == t, nil
	case "!=":
		return v != t, nil
	case "<":
		return v < t, nil
	case "<=":
		return v <= t, nil
	case ">":
		return v > t, nil
	case ">=":
		return v >= t, nil
	}
	return false, fmt.Errorf("oracle: unknown operator %q", op)
}

// table answers an aggregate or groupby.
func (o *Oracle) table(q Query) (any, error) {
	var (
		groups map[uint64]*aggAcc
		total  aggAcc
		err    error
	)
	if o.indexable(q) {
		groups, total, err = o.tableIndexed(q)
	} else {
		groups, total, err = o.tableRows(q)
	}
	if err != nil {
		return nil, err
	}
	if q.Op == "aggregate" {
		v, err := total.result(q.Agg)
		return queryd.AggregateResult{Value: v}, err
	}
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := queryd.GroupByResult{Groups: make([]queryd.GroupResult, 0, len(keys))}
	for _, k := range keys {
		v, err := groups[k].result(q.Agg)
		if err != nil {
			return nil, err
		}
		out.Groups = append(out.Groups, queryd.GroupResult{Key: k, Value: v})
	}
	return out, nil
}

// indexable reports whether the prefix-sum index answers q: amount is
// the target, region (if any) the key, and every predicate is on
// region, flag, or an amount range.
func (o *Oracle) indexable(q Query) bool {
	if q.Column != "amount" || (q.Op == "groupby" && q.Key != "region") {
		return false
	}
	for _, p := range q.Where {
		switch {
		case p.Column == "region" || p.Column == "flag":
		case p.Column == "amount" && p.Op != "!=":
		default:
			return false
		}
	}
	return true
}

// tableIndexed answers q from the prefix sums: the amount predicates
// intersect into one range [aLo, aHi), and region/flag predicates select
// a set of (region, flag) groups.
func (o *Oracle) tableIndexed(q Query) (map[uint64]*aggAcc, aggAcc, error) {
	aLo, aHi := uint64(0), uint64(amountDomain)
	var regionOK [regionDomain]bool
	var flagOK [flagDomain]bool
	for i := range regionOK {
		regionOK[i] = true
	}
	for i := range flagOK {
		flagOK[i] = true
	}
	for _, p := range q.Where {
		switch p.Column {
		case "amount":
			lo, hi := amountRange(p)
			aLo, aHi = max(aLo, lo), min(aHi, hi)
		case "region", "flag":
			ok := regionOK[:]
			if p.Column == "flag" {
				ok = flagOK[:]
			}
			for v := range ok {
				hold, err := cmp(p.Op, uint64(v), p.Value)
				if err != nil {
					return nil, aggAcc{}, err
				}
				ok[v] = ok[v] && hold
			}
		}
	}
	groups := map[uint64]*aggAcc{}
	var total aggAcc
	if aLo >= aHi {
		return groups, total, nil
	}
	for r := uint64(0); r < regionDomain; r++ {
		if !regionOK[r] {
			continue
		}
		var acc aggAcc
		for f := uint64(0); f < flagDomain; f++ {
			if flagOK[f] {
				acc.merge(o.rangeAgg(r*flagDomain+f, aLo, aHi))
			}
		}
		if acc.count > 0 {
			groups[r] = &acc
			total.merge(acc)
		}
	}
	return groups, total, nil
}

// amountRange converts an amount predicate into the half-open range of
// amounts satisfying it.
func amountRange(p Pred) (lo, hi uint64) {
	t := p.Value
	switch p.Op {
	case "<":
		return 0, min(t, amountDomain)
	case "<=":
		return 0, min(t, amountDomain-1) + 1
	case ">":
		return t + 1, amountDomain
	case ">=":
		return t, amountDomain
	default: // "=", "=="
		return t, t + 1
	}
}

// rangeAgg folds the rows of group g with amount in [lo, hi).
func (o *Oracle) rangeAgg(g, lo, hi uint64) aggAcc {
	c, s := o.prefCnt[g], o.prefSum[g]
	acc := aggAcc{count: uint64(c[hi] - c[lo]), sum: s[hi] - s[lo]}
	if acc.count > 0 {
		// The largest amount present is one below the first prefix
		// position that already reaches the range's total.
		j := lo + 1 + uint64(sort.Search(int(hi-lo), func(i int) bool { return c[lo+1+uint64(i)] == c[hi] }))
		acc.max = j - 1
	}
	return acc
}

// tableRows answers q with a row loop. Predicates on id (the row number)
// narrow the loop's range first, so id-range panels cost their width.
func (o *Oracle) tableRows(q Query) (map[uint64]*aggAcc, aggAcc, error) {
	target, ok := o.cols[q.Column]
	if !ok {
		return nil, aggAcc{}, fmt.Errorf("oracle: no column %q", q.Column)
	}
	var key []uint64
	if q.Op == "groupby" {
		if key, ok = o.cols[q.Key]; !ok {
			return nil, aggAcc{}, fmt.Errorf("oracle: no column %q", q.Key)
		}
	}
	lo, hi := uint64(0), o.rows
	var rest []Pred
	for _, p := range q.Where {
		if _, ok := o.cols[p.Column]; !ok {
			return nil, aggAcc{}, fmt.Errorf("oracle: no column %q", p.Column)
		}
		if _, err := cmp(p.Op, 0, 0); err != nil {
			return nil, aggAcc{}, err
		}
		if p.Column == "id" && p.Op != "!=" {
			plo, phi := idRange(p)
			lo, hi = max(lo, plo), min(hi, phi)
			continue
		}
		rest = append(rest, p)
	}
	groups := map[uint64]*aggAcc{}
	var total aggAcc
rows:
	for i := lo; i < hi; i++ {
		for _, p := range rest {
			if hold, _ := cmp(p.Op, o.cols[p.Column][i], p.Value); !hold {
				continue rows
			}
		}
		total.add(target[i])
		if key != nil {
			g := groups[key[i]]
			if g == nil {
				g = &aggAcc{}
				groups[key[i]] = g
			}
			g.add(target[i])
		}
	}
	return groups, total, nil
}

// idRange converts an id predicate into the half-open row range
// satisfying it (id equals the row number).
func idRange(p Pred) (lo, hi uint64) {
	t := p.Value
	switch p.Op {
	case "<":
		return 0, t
	case "<=":
		return 0, satAdd(t, 1)
	case ">":
		return satAdd(t, 1), math.MaxUint64
	case ">=":
		return t, math.MaxUint64
	default: // "=", "=="
		return t, satAdd(t, 1)
	}
}

func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

func (o *Oracle) graph() (*graph.CSR, error) {
	if o.csr == nil {
		return nil, fmt.Errorf("oracle: dataset has no graph")
	}
	return o.csr, nil
}

// degree: out+in degree summed (2× the edges) and maximized.
func (o *Oracle) degree() (any, error) {
	g, err := o.graph()
	if err != nil {
		return nil, err
	}
	var res queryd.DegreeResult
	for v := uint64(0); v < g.NumVertices; v++ {
		d := g.OutDegree(uint32(v)) + g.InDegree(uint32(v))
		res.DegreeSum += d
		res.MaxDegree = max(res.MaxDegree, d)
	}
	return res, nil
}

// bfs runs a sequential BFS over forward edges: vertices reached (the
// source included) and the number of levels.
func (o *Oracle) bfs(src uint64) (any, error) {
	g, err := o.graph()
	if err != nil {
		return nil, err
	}
	if src >= g.NumVertices {
		return nil, fmt.Errorf("oracle: bfs source %d out of range", src)
	}
	seen := make([]bool, g.NumVertices)
	seen[src] = true
	frontier := []uint32{uint32(src)}
	res := queryd.BFSResult{Source: src}
	for len(frontier) > 0 {
		res.Levels++
		res.Reached += uint64(len(frontier))
		var next []uint32
		for _, v := range frontier {
			for _, d := range g.OutNeighbors(v) {
				if !seen[d] {
					seen[d] = true
					next = append(next, d)
				}
			}
		}
		frontier = next
	}
	return res, nil
}

// pageRankAnswer holds the sequential reference ranks for one iteration
// bound.
type pageRankAnswer struct {
	iters   int
	rankSum float64
	ranks   []float64
}

// rankTol bounds the difference between served and reference ranks and
// rank sums: the parallel kernel agrees with the reference per vertex,
// and the sums differ only by summation order.
const rankTol = 1e-9

func (o *Oracle) pageRank(iters int) (any, error) {
	g, err := o.graph()
	if err != nil {
		return nil, err
	}
	// The served kernel's parameters: queryd starts from the default
	// config and bounds the iterations.
	cfg := analytics.DefaultPageRankConfig()
	cfg.MaxIters = iters
	ranks, n := analytics.PageRankRef(g, cfg)
	a := pageRankAnswer{iters: n, ranks: ranks}
	for _, r := range ranks {
		a.rankSum += r
	}
	return a, nil
}

func (a pageRankAnswer) check(got queryd.PageRankResult) error {
	if got.Iters != a.iters {
		return fmt.Errorf("pagerank ran %d iterations, reference %d", got.Iters, a.iters)
	}
	if math.Abs(got.RankSum-a.rankSum) > rankTol {
		return fmt.Errorf("pagerank rank sum %v, reference %v", got.RankSum, a.rankSum)
	}
	if len(got.Top) == 0 {
		return fmt.Errorf("pagerank returned no top vertices")
	}
	// Compare ranks by vertex, so ties may come in any order.
	sorted := append([]float64(nil), a.ranks...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for i, vr := range got.Top {
		if vr.Vertex >= uint64(len(a.ranks)) || math.Abs(a.ranks[vr.Vertex]-vr.Rank) > rankTol {
			return fmt.Errorf("pagerank top[%d] = vertex %d rank %v, reference rank differs", i, vr.Vertex, vr.Rank)
		}
		if math.Abs(sorted[i]-vr.Rank) > rankTol {
			return fmt.Errorf("pagerank top[%d] rank %v, reference %d-th highest is %v", i, vr.Rank, i+1, sorted[i])
		}
	}
	return nil
}
