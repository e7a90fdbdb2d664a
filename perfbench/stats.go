package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and fails unless at least minBeyond samples lie strictly beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts the benchmark's operations and the ones that failed. An
// operation fails at most once, whatever number of its checks failed.
type tally struct {
	attempted, failed int
}

// op records one operation; errs holds the outcome of each of its checks.
func (t *tally) op(what string, errs ...error) {
	t.attempted++
	for _, err := range errs {
		if err != nil {
			t.failed++
			logf("FAIL %s: %v", what, err)
			return
		}
	}
}

// failedFrac is failed ÷ attempted.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
