package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// sample supports reporting it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// beyond is the number of samples ranked strictly above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// supported reports whether n samples leave at least minBeyond samples
// beyond the q-quantile.
func supported(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// highestTail returns the highest of the candidate percentiles that n
// samples support, or 0.5 when none of them is.
func highestTail(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if supported(n, q) {
			return q
		}
	}
	return 0.5
}

// latencySummary is the percentile view of one window's op latencies. A
// failed op enters as +Inf, so it misses every latency limit.
type latencySummary struct {
	N             int
	P50, P90, P99 float64
	Tail          float64 // highest supported percentile
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return latencySummary{
		N:    len(s),
		P50:  quantile(s, 0.50),
		P90:  quantile(s, 0.90),
		P99:  quantile(s, 0.99),
		Tail: highestTail(len(s)),
	}
}

// median of an unsorted slice: the middle value, or the mean of the two
// middle values for an even count (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
