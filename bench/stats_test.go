package main

import (
	"math"
	"testing"
)

func TestFastestDecileMean(t *testing.T) {
	// 20 slices: the fastest tenth is the two smallest, whatever the order
	// and however slow the slow tail is.
	v := []float64{50, 12, 900, 30, 10, 40, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 1e9}
	if got := fastestDecileMean(v); got != 11 {
		t.Errorf("fastestDecileMean = %v, want 11", got)
	}
	// Fewer than ten slices still use one.
	if got := fastestDecileMean([]float64{7, 3, 5}); got != 3 {
		t.Errorf("fastestDecileMean of 3 values = %v, want 3", got)
	}
	if got := fastestDecileMean(nil); got != 0 {
		t.Errorf("fastestDecileMean(nil) = %v, want 0", got)
	}
	// 60 slices, the benchmark's own count: six fastest.
	var sixty []float64
	for i := 60; i >= 1; i-- {
		sixty = append(sixty, float64(i))
	}
	if got := fastestDecileMean(sixty); got != 3.5 {
		t.Errorf("fastestDecileMean of 1..60 = %v, want 3.5", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // 25% of 39 < 10
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true}, // p99 only from 1,000 samples
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	if got := quantile(v, 0.99); math.Abs(got-990) > 0.011 {
		t.Errorf("p99 of 1..1000 = %v, want about 990", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesAndSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if q1, q3 := quantile(v, 0.25), quantile(v, 0.75); q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 3, 7", q1, q3)
	}
	if got := relSpread(v); got != 0.8 {
		t.Errorf("relSpread = %v, want 0.8", got)
	}
}

func TestTwoPointFit(t *testing.T) {
	// t = 180 + 5*n, sampled at a 13-instruction and a 60,000-instruction
	// function.
	fixed, per := twoPointFit(13, 180+5*13, 60000, 180+5*60000)
	if math.Abs(fixed-180) > 1e-6 || math.Abs(per-5) > 1e-9 {
		t.Errorf("twoPointFit = %v, %v; want 180, 5", fixed, per)
	}
	// Equal sizes cannot separate the two: everything is fixed cost.
	if fixed, per := twoPointFit(10, 300, 10, 300); fixed != 300 || per != 0 {
		t.Errorf("degenerate fit = %v, %v; want 300, 0", fixed, per)
	}
}
