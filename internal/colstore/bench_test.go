package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smartarrays/internal/machine"
	"smartarrays/internal/rts"
)

// benchTable builds a 3-column table (two predicate columns and one
// target, all `bits` wide with uniform values) for the masked-vs-per-row
// benchmarks.
func benchTable(b *testing.B, rows uint64, bits uint) *Table {
	b.Helper()
	rt := rts.New(machine.X52Small())
	table, err := NewTable(rt, rows)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"p1", "p2", "v"} {
		vals := make([]uint64, rows)
		for i := range vals {
			vals[i] = rng.Uint64() >> (64 - bits)
		}
		if _, err := table.AddColumn(name, vals, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	return table
}

// selPreds returns a two-predicate conjunction whose combined selectivity
// over uniform `bits`-wide data is approximately sel (each predicate
// passes sqrt(sel) of the rows).
func selPreds(sel float64, bits uint) []Pred {
	thr := uint64(math.Sqrt(sel) * math.Pow(2, float64(bits)))
	return []Pred{
		{Column: "p1", Op: Lt, Value: thr},
		{Column: "p2", Op: Lt, Value: thr},
	}
}

var benchSels = []float64{0.01, 0.50, 0.99}

// BenchmarkAggregate2PredSum measures the 2-predicate sum — the
// acceptance workload — through the selection-bitmap pipeline vs the
// per-row scalar path, across selectivities and column widths.
func BenchmarkAggregate2PredSum(b *testing.B) {
	const rows = 1 << 18
	for _, bits := range []uint{16, 32} {
		table := benchTable(b, rows, bits)
		for _, sel := range benchSels {
			preds := selPreds(sel, bits)
			b.Run(fmt.Sprintf("bits=%d/masked/sel=%.0f%%", bits, sel*100), func(b *testing.B) {
				b.SetBytes(rows)
				for i := 0; i < b.N; i++ {
					if _, err := table.Aggregate(Sum, "v", preds...); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("bits=%d/perrow/sel=%.0f%%", bits, sel*100), func(b *testing.B) {
				b.SetBytes(rows)
				for i := 0; i < b.N; i++ {
					if _, err := table.aggregateScalar(Sum, "v", preds...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		table.Free()
	}
}

// BenchmarkAggregate2PredCount: with masks, a predicated count never
// touches the target column at all. The 1pred cases run the single
// predicate of the conjunction alone.
func BenchmarkAggregate2PredCount(b *testing.B) {
	const rows = 1 << 18
	table := benchTable(b, rows, 16)
	defer table.Free()
	preds := selPreds(0.50, 16)
	for _, c := range []struct {
		name  string
		preds []Pred
	}{{"", preds}, {"1pred/", preds[:1]}} {
		b.Run(c.name+"masked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := table.Aggregate(Count, "v", c.preds...); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"perrow", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := table.aggregateScalar(Count, "v", c.preds...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGroupTable adds a narrow key column (dense path) to the bench
// fixture.
func benchGroupTable(b *testing.B, rows uint64, keyDomain int) *Table {
	b.Helper()
	rt := rts.New(machine.X52Small())
	table, err := NewTable(rt, rows)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, rows)
	for i := range keys {
		keys[i] = uint64(rng.Intn(keyDomain))
	}
	if _, err := table.AddColumn("k", keys, Options{}); err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"p1", "p2", "v"} {
		vals := make([]uint64, rows)
		for i := range vals {
			vals[i] = uint64(rng.Intn(1 << 16))
		}
		if _, err := table.AddColumn(name, vals, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	return table
}

// BenchmarkGroupBy2Pred measures the predicated GroupBy (dense-key fast
// path + mask pipeline) against the scalar per-row/map+mutex reference.
func BenchmarkGroupBy2Pred(b *testing.B) {
	const rows = 1 << 18
	table := benchGroupTable(b, rows, 64)
	defer table.Free()
	preds := selPreds(0.50, 16)
	b.Run("masked-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.GroupBy("k", Sum, "v", preds...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perrow-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.groupByScalar("k", Sum, "v", preds...); err != nil {
				b.Fatal(err)
			}
		}
	})
}
