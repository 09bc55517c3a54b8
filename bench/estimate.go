package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. It copies before sorting; an empty input
// yields NaN so a missing sample can never pass for a measurement.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// The two estimators (README, "Estimators"): samples that all have the
// same structure and differ only by noise — whole epochs, per-round medians
// — are summarised by their median; samples that interference can only
// ever push one way — a round's p95, an epoch's set-up time, a layer's
// span — by the undisturbed end of their distribution, the fast decile.

func median(xs []float64) float64 { return quantile(xs, 0.50) }

// fastCost is the fast decile of a lower-is-better series (p10).
func fastCost(xs []float64) float64 { return quantile(xs, 0.10) }
