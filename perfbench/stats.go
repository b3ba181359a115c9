package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: with fewer, the percentile is one or two outliers
// and moves from run to run.
const minBeyond = 10

// Pct is a nearest-rank percentile of raw samples, with the counts that
// qualify it.
type Pct struct {
	Value float64
	// N is the sample count; Beyond is how many samples rank above Value.
	N, Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which it sorts in place. It fails when there are no samples or fewer
// than minBeyond samples rank above the percentile.
func percentile(samples []float64, q float64) (Pct, error) {
	if !(q > 0 && q < 1) {
		return Pct{}, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(samples)
	if n == 0 {
		return Pct{}, fmt.Errorf("p%g of no samples", q*100)
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	p := Pct{Value: samples[rank-1], N: n, Beyond: n - rank}
	if p.Beyond < minBeyond {
		return p, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, p.Beyond, minBeyond)
	}
	return p, nil
}

// median is the middle of values (mean of the two middle ones for an
// even count); it sorts values in place. It returns 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}
