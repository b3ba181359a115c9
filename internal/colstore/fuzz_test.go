package colstore

import (
	"math/rand"
	"sort"
	"testing"

	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// fuzzColumns are the fuzz table's columns: k is the group key, v the
// aggregation target, and any of them may carry predicates.
var fuzzColumns = []string{"k", "a", "b", "v"}

// fuzzTable builds a table of rows rows whose columns hold uniform
// (shape 0), sorted (1) or clustered (2) values, each column re-encoded
// to encoding.Kinds[codecs[i]] when the kind fits it.
func fuzzTable(t *testing.T, rt *rts.Runtime, rng *rand.Rand, rows uint64, shape uint8, codecs []byte) (*Table, map[string][]uint64) {
	t.Helper()
	table, err := NewTable(rt, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(table.Free)
	cols := map[string][]uint64{}
	for i, name := range fuzzColumns {
		width := uint(1 + rng.Intn(20))
		if name == "k" && rng.Intn(2) == 0 {
			width = 14 + uint(rng.Intn(4)) // past denseKeyMaxBits: the map path
		}
		vals := make([]uint64, rows)
		run := 1 + rng.Intn(200)
		for r := range vals {
			if shape%3 == 2 && r%run != 0 {
				vals[r] = vals[r-1] // clustered: runs of one value
			} else {
				vals[r] = rng.Uint64() >> (64 - width)
			}
		}
		if shape%3 == 1 {
			sort.Slice(vals, func(x, y int) bool { return vals[x] < vals[y] })
		}
		if _, err := table.AddColumn(name, vals, Options{}); err != nil {
			t.Fatal(err)
		}
		if i < len(codecs) {
			// Not every kind fits every column; a refused re-encode keeps
			// the packed representation, which is a valid case too.
			_, _ = table.ReencodeColumn(name, encoding.Kinds[int(codecs[i])%len(encoding.Kinds)], 0)
		}
		cols[name] = vals
	}
	return table, cols
}

// fuzzQuery derives a plan with 0–3 predicates, grouped when keyed.
func fuzzQuery(rng *rand.Rand, cols map[string][]uint64, agg, npreds uint8, keyed bool) ScanQuery {
	q := ScanQuery{Agg: Agg(agg % 4), Column: "v"}
	if keyed {
		q.Key = "k"
	}
	for i := 0; i < int(npreds%4); i++ {
		name := fuzzColumns[rng.Intn(len(fuzzColumns))]
		var max uint64
		for _, v := range cols[name] {
			if v > max {
				max = v
			}
		}
		q.Preds = append(q.Preds, Pred{Column: name, Op: CmpOp(rng.Intn(6)), Value: rng.Uint64() % (max + 2)})
	}
	return q
}

// checkProfile asserts a full-table profile's invariants: every column
// accounts all of its chunks as scanned or pruned, one predicate entry
// per predicate, a key entry for grouped plans, a target entry unless
// the plan is a scalar count, and nothing at all for a schema-answered
// count.
func checkProfile(t *testing.T, q ScanQuery, prof *obs.QueryProfile, chunks uint64) {
	t.Helper()
	roles := map[string]int{}
	for _, c := range prof.Columns {
		roles[c.Role]++
		if c.Chunks != chunks || c.ChunksScanned+c.ChunksPruned != chunks {
			t.Fatalf("%+v: column %s (%s) scanned %d + pruned %d, chunks %d, want %d",
				q, c.Column, c.Role, c.ChunksScanned, c.ChunksPruned, c.Chunks, chunks)
		}
	}
	want := map[string]int{}
	if q.Key != "" || len(q.Preds) > 0 || q.Agg != Count {
		if len(q.Preds) > 0 {
			want[obs.RolePredicate] = len(q.Preds)
		}
		if q.Key != "" {
			want[obs.RoleKey] = 1
		}
		if q.Key != "" || q.Agg != Count {
			want[obs.RoleTarget] = 1
		}
	}
	if len(roles) != len(want) {
		t.Fatalf("%+v: profiled roles %v, want %v", q, roles, want)
	}
	for r, n := range want {
		if roles[r] != n {
			t.Fatalf("%+v: profiled roles %v, want %v", q, roles, want)
		}
	}
}

// FuzzScanRoutes is the differential check on the scan pipeline: for a
// random table (codec per column, uniform/sorted/clustered data) and a
// random plan, every route — profiled Aggregate/GroupBy, MultiScan with
// an identical twin, and ScanRange over fuzzer-chosen segments with a
// live re-encode between segments — must match the per-row reference.
func FuzzScanRoutes(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint8(0), uint8(0), uint8(2), false, []byte{1, 1, 1, 1}, []byte{100})
	f.Add(int64(2), uint16(4097), uint8(1), uint8(3), uint8(1), true, []byte{3, 4, 5, 2}, []byte{7, 200, 31})
	f.Add(int64(3), uint16(2500), uint8(2), uint8(1), uint8(3), true, []byte{2, 3, 0, 5}, []byte{})
	f.Add(int64(4), uint16(63), uint8(2), uint8(2), uint8(0), false, []byte{5, 2, 3, 4}, []byte{1, 2, 3})
	f.Add(int64(5), uint16(130), uint8(1), uint8(1), uint8(0), false, []byte{0, 0, 0, 0}, []byte{64, 128})
	rt := rts.New(machine.X52Small())
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw uint16, shape, agg, npreds uint8, keyed bool, codecs, cuts []byte) {
		rows := 1 + uint64(rowsRaw)%5000
		rng := rand.New(rand.NewSource(seed))
		table, cols := fuzzTable(t, rt, rng, rows, shape, codecs)
		q := fuzzQuery(rng, cols, agg, npreds, keyed)

		// The independent front-ends, profiled.
		prof := obs.NewQueryProfile(1)
		view := table.WithRuntime(rt.WithProfile(prof))
		var got ScanResult
		var err error
		if q.Key == "" {
			got.Value, err = view.Aggregate(q.Agg, q.Column, q.Preds...)
		} else {
			got.Groups, err = view.GroupBy(q.Key, q.Agg, q.Column, q.Preds...)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScalar(t, table, []ScanQuery{q}, []ScanResult{got})
		checkProfile(t, q, prof, (rows+63)/64)

		// One cooperative pass shared with an identical twin.
		twins, err := table.MultiScan([]ScanQuery{q, q})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScalar(t, table, []ScanQuery{q, q}, twins)

		// Segments at fuzzer-chosen boundaries, re-encoding one column
		// between segments: values survive every codec swap.
		bounds := []uint64{0, rows}
		for _, c := range cuts {
			bounds = append(bounds, uint64(c)*rows/256)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		st, err := table.NewScanState(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(bounds); i++ {
			table.ScanRange(bounds[i-1], bounds[i], []*ScanState{st})
			kind := encoding.Kinds[(int(seed&0xff)+i)%len(encoding.Kinds)]
			_, _ = table.ReencodeColumn(fuzzColumns[i%len(fuzzColumns)], kind, 0)
		}
		checkAgainstScalar(t, table, []ScanQuery{q}, []ScanResult{st.Result()})
	})
}
