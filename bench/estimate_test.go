package main

import (
	"math"
	"testing"
)

func TestQuantileKnownVectors(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, shuffled
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p0", quantile(ten, 0), 1},
		{"p100", quantile(ten, 1), 10},
		{"median interpolates", median(ten), 5.5},
		{"fast cost is p10", fastCost(ten), 1.9},
		{"p90", quantile(ten, 0.9), 9.1},
		{"lower quartile", quantile(ten, 0.25), 3.25},
		{"single sample", fastCost([]float64{7}), 7},
		{"two samples", quantile([]float64{2, 4}, 0.25), 2.5},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if !math.IsNaN(fastCost(nil)) {
		t.Error("an empty series must not yield a number")
	}
	if ten[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
}

// TestFastDecileIgnoresInterference is the estimator's reason to exist:
// slowing a fifth of the rounds moves the mean and not the fast decile.
func TestFastDecileIgnoresInterference(t *testing.T) {
	quiet := make([]float64, 100)
	noisy := make([]float64, 100)
	for i := range quiet {
		quiet[i] = 100 + float64(i%5) // cost per unit, lower is better
		noisy[i] = quiet[i]
		if i%5 == 0 {
			noisy[i] *= 3 // an interfered round is only ever slower
		}
	}
	if a, b := fastCost(quiet), fastCost(noisy); math.Abs(a-b)/a > 0.02 {
		t.Errorf("fast decile moved from %v to %v under interference", a, b)
	}
}

// TestSpeedNormalisation: a box on which the calibration kernel runs twice
// as slow yields a factor that pulls CPU-bound times back by 2^0.7.
func TestSpeedNormalisation(t *testing.T) {
	ref := calReference.Seconds()
	if got := speed([]float64{ref, ref}); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed at reference = %v, want 1", got)
	}
	if got, want := speed([]float64{2 * ref, 2 * ref}), math.Pow(0.5, speedExponent); math.Abs(got-want) > 1e-12 {
		t.Errorf("speed on a box twice as slow = %v, want %v", got, want)
	}
	// One reading stretched tenfold by a collector cycle barely counts.
	if got := speed([]float64{ref, ref, ref, ref, ref, ref, ref, ref, ref, 10 * ref}); got < 0.93 {
		t.Errorf("one stretched reading pulled speed down to %v", got)
	}
	if got := speed(nil); got != 1 {
		t.Errorf("speed without readings = %v, want 1", got)
	}
}
