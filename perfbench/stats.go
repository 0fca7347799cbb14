package main

import (
	"math"
	"sort"
	"time"
)

// pct is one percentile of a sample together with the evidence behind
// it: how many samples were taken and how many lie strictly above the
// reported value. A tail percentile backed by fewer than minBeyond
// samples is reported but flagged, so a reader can tell a measured p99
// from a lucky maximum.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// minBeyond is how many samples must lie beyond a percentile before it
// counts as measured rather than guessed.
const minBeyond = 10

// supported reports whether enough samples lie beyond the percentile.
func (p pct) supported() bool { return p.Beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least ⌈q·n⌉ samples at or below it. xs is not
// modified. An empty sample yields the zero pct.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return pct{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the 0.5 percentile's value.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// mean is the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
