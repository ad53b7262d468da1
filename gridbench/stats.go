package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of values sorted ascending, interpolating
// linearly between the two nearest ranks (the "inclusive" method, which is
// also what Python's statistics.quantiles(..., method="inclusive") uses).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of v (any order).
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// micros converts a duration to float microseconds, keeping every digit.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
