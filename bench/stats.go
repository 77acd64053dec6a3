package main

import (
	"math"
	"sort"
)

// sample is one timed op: its wall-clock duration and the class of input
// it ran on (matrix class in cold_factor, request class in serve_mixed, 0
// elsewhere).
type sample struct {
	ms    float64
	class int
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; NaN for an
// empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// segmentMedian is the harness's timing statistic: stat is taken inside
// each timed segment and the median over the segments is reported. A
// disturbance shorter than two segments cannot move it, and a slowdown that
// comes and goes through most of a run does.
func segmentMedian(segs [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, s := range segs {
		if len(s) > 0 {
			per = append(per, stat(s))
		}
	}
	return median(per)
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method) — the
// spread the acceptance driver takes over repeated runs. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// classMedians returns the median op time of each input class in one
// segment. Without perClass all samples count as class 0.
func classMedians(seg []sample, perClass bool) map[int]float64 {
	per := map[int][]float64{}
	for _, s := range seg {
		c := 0
		if perClass {
			c = s.class
		}
		per[c] = append(per[c], s.ms)
	}
	out := map[int]float64{}
	for c, v := range per {
		out[c] = median(v)
	}
	return out
}

// speedup is the baseline's median op time over the solver's, taken inside
// each segment — where both ran within seconds of each other — and then as
// the median over the segments. With perClass a segment's ratio is the
// geometric mean over the input classes both sides ran (the paper's geomean
// over its matrix suite); otherwise all samples form one class.
func speedup(ops, base [][]sample, perClass bool) float64 {
	var per []float64
	for s := range ops {
		o, b := classMedians(ops[s], perClass), classMedians(base[s], perClass)
		logSum, n := 0.0, 0
		for c, ov := range o {
			if bv, ok := b[c]; ok {
				logSum += math.Log(bv / ov)
				n++
			}
		}
		if n > 0 {
			per = append(per, math.Exp(logSum/float64(n)))
		}
	}
	return median(per)
}
