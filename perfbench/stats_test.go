package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so percentile must sort
	}
	return out
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		name       string
		samples    []float64
		q          float64
		want       float64
		wantBeyond int
		wantErr    bool
	}{
		{"no samples", nil, 0.5, 0, 0, true},
		{"q zero", seq(100), 0, 0, 0, true},
		{"q one", seq(100), 1, 0, 0, true},
		{"one sample", []float64{3}, 0.5, 3, 0, true},
		{"median of 21", seq(21), 0.5, 11, 10, false},
		{"median of 20 has 10 beyond", seq(20), 0.5, 10, 10, false},
		{"median of 19 has 9 beyond", seq(19), 0.5, 10, 9, true},
		{"p99 of 1000", seq(1000), 0.99, 990, 10, false},
		{"p99 of 999", seq(999), 0.99, 990, 9, true},
		{"p99 of 2000", seq(2000), 0.99, 1980, 20, false},
		{"ties", []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 0.5, 5, 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := percentile(c.samples, c.q)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if c.samples == nil || c.q <= 0 || c.q >= 1 {
				return
			}
			if p.Value != c.want || p.Beyond != c.wantBeyond || p.N != len(c.samples) {
				t.Fatalf("got %+v, want value %v with %d beyond of %d", p, c.want, c.wantBeyond, len(c.samples))
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
