package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p      float64
		n      int
		beyond int
		value  float64
	}{
		{0.9, 99, 9, 90},
		{0.9, 100, 10, 90},
		{0.5, 19, 9, 10},
		{0.5, 20, 10, 10}, // rank 10 of 20 leaves 10 beyond
		{0.99, 1000, 10, 990},
		{0.99, 999, 9, 990},
	} {
		pc := percentile(seq(tc.n), tc.p)
		if pc.N != tc.n || pc.Beyond != tc.beyond || pc.Value != tc.value {
			t.Errorf("p%v of %d: got %+v, want beyond %d value %v", tc.p, tc.n, pc, tc.beyond, tc.value)
		}
		if pc.OK != (tc.beyond >= minBeyond) {
			t.Errorf("p%v of %d: OK=%v with %d beyond", tc.p, tc.n, pc.OK, pc.Beyond)
		}
	}
	if pc := percentile(nil, 0.9); pc.OK || pc.N != 0 {
		t.Errorf("empty set: %+v", pc)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its input")
	}
}
