package main

import (
	"math"
	"sort"
)

// fastestDecileMean is the benchmark's host-time statistic: the mean of
// the fastest tenth of the slices (at least one).  Interference on a
// shared machine only ever slows a slice, so the fast tail is the part of
// the distribution the program itself controls; on the sizing prototype it
// repeated within 2% where the slice median spread 12%.
func fastestDecileMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := len(s) / 10
	if k < 1 {
		k = 1
	}
	return mean(s[:k])
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(v []float64) float64 { return quantile(v, 0.75) - quantile(v, 0.25) }

// relSpread is the interquartile range as a share of the median — the
// spread the A/A mode prints beside each metric's bound.
func relSpread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(iqr(v) / m)
}

// tailPercentile picks the highest percentile a sample supports: the
// highest of 99.9, 99, 95, 90, 75 that still has at least ten samples
// beyond it.  ok is false when even the 75th has fewer (n < 40); callers
// then report the median only.
func tailPercentile(n int) (p float64, ok bool) {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 10, true
		}
	}
	return 0, false
}

// twoPointFit splits a call's host time into a fixed per-call part and a
// per-simulated-instruction part from two measurements: a short function
// (n1 instructions, t1 ns per call) and a long one (n2, t2).
//
//	t = fixed + perInsn*n
func twoPointFit(n1, t1, n2, t2 float64) (fixed, perInsn float64) {
	if n1 == n2 {
		return t1, 0
	}
	perInsn = (t2 - t1) / (n2 - n1)
	return t1 - perInsn*n1, perInsn
}
