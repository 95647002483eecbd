package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (0 < p <= 1): the smallest
// sample with at least p of the samples at or below it. 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), which is
// what the acceptance check of the benchmark uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// ratio is a/b, or 0 where b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
