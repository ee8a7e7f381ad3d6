package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

var errFewSamples = errors.New("too few samples for percentile")

// pct is one percentile with the sample count it was taken from.
type pct struct {
	Value float64
	N     int
}

func (p pct) String() string { return fmt.Sprintf("%.4g (n=%d)", p.Value, p.N) }

// percentile returns the nearest-rank q-quantile of xs (which it sorts)
// and the sample count. It refuses when fewer than minBeyond samples lie
// beyond the percentile.
func percentile(xs []float64, q float64) (pct, error) {
	n := len(xs)
	r := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based nearest rank
	if r < 1 {
		r = 1
	}
	if n == 0 || n-r < minBeyond {
		return pct{N: n}, fmt.Errorf("p%g of %d samples: %w", q*100, n, errFewSamples)
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return pct{Value: xs[r-1], N: n}, nil
}

// median is the 50th percentile of a small set of repeats, where the
// minBeyond rule does not apply: it reports the middle value (the mean of
// the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
