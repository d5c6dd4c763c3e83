package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: p90 needs 100 samples, p95 200.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least a q share of the samples at or below it. xs is
// sorted in place. Failed requests enter as +Inf, so they count as
// missing every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(len(xs)-1, max(0, rank))]
}

// tailQuantile is quantile for a reported tail: it refuses when fewer
// than minBeyond samples lie beyond q.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if need := int(math.Round(minBeyond / (1 - q))); len(xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, need, len(xs))
	}
	return quantile(xs, q), nil
}

// median returns the middle value of xs (mean of the two middle ones for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
