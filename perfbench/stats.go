package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile is one reported percentile with the sample count behind it.
type Percentile struct {
	P      float64 // requested quantile in (0, 1)
	Value  float64 // nearest-rank value
	N      int     // samples in the set
	Beyond int     // samples strictly after the reported rank
	OK     bool    // Beyond >= minBeyond
}

// percentile returns the nearest-rank p-quantile of xs and whether the
// set is large enough to report it: at least minBeyond samples must
// rank after it. With too few samples Value is still filled in (the
// largest rank available), but OK is false.
func percentile(xs []float64, p float64) Percentile {
	pc := Percentile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return pc
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	pc.Value = s[k]
	pc.Beyond = len(s) - 1 - k
	pc.OK = pc.Beyond >= minBeyond
	return pc
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}
