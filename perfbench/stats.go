package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail value resting on fewer is one slow outlier.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses a percentile with fewer than minBeyond samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// tailQ is the percentile latency_tail_ms reports where enough samples
// lie beyond it. p99 is resolvable on serve, but on a shared two-core VM
// its spread across runs exceeded the largest bound a metric may have:
// stalls of the VM decide the worst 1% of a four-second alarm window.
const tailQ = 0.9

// tail returns the highest of qs (tried in order) that percentile accepts,
// or the largest sample with q = 1 when none has enough samples beyond it.
func tail(xs []float64, qs ...float64) (q, v float64) {
	for _, q := range qs {
		if v, err := percentile(xs, q); err == nil {
			return q, v
		}
	}
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 1, 0
	}
	return 1, s[len(s)-1]
}

// median returns the middle sample (the mean of the middle two for an even
// count), 0 for none.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
