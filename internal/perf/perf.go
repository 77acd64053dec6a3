// Package perf provides the measurement harness for the paper's
// evaluation: wall-clock timing of numeric factorization, speedup relative
// to KLU, geometric means over a suite, and Dolan–Moré performance
// profiles (the paper's Figure 7).
package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is one (matrix, solver, threads) measurement.
type Sample struct {
	Matrix  string
	Solver  string
	Threads int
	Seconds float64
	// Failed marks solver failures (SLU-MT "fails on rajat21" in Fig 5);
	// failed samples count as +Inf in profiles.
	Failed bool
}

// Time runs f repeatedly until it has consumed at least minDuration (at
// least once) and returns the minimum wall-clock seconds per run — the
// usual best-of-k estimator for short kernels.
func Time(minDuration time.Duration, f func()) float64 {
	best := math.Inf(1)
	var total time.Duration
	for runs := 0; runs < 1 || total < minDuration; runs++ {
		start := time.Now()
		f()
		el := time.Since(start)
		total += el
		if s := el.Seconds(); s < best {
			best = s
		}
		if runs > 50 {
			break
		}
	}
	return best
}

// Speedup returns Time(matrix, KLU, 1) / Time(matrix, solver, p), the
// paper's Figure 6 metric.
func Speedup(kluSeconds, solverSeconds float64) float64 {
	if solverSeconds <= 0 {
		return math.Inf(1)
	}
	return kluSeconds / solverSeconds
}

// GeoMean returns the geometric mean of positive values, ignoring
// non-positive entries (paper's summary statistic: 5.91× on 16 cores).
func GeoMean(values []float64) float64 {
	s, n := 0.0, 0
	for _, v := range values {
		if v > 0 && !math.IsInf(v, 0) {
			s += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// ProfilePoint is one (x, fraction) point of a performance profile.
type ProfilePoint struct {
	X        float64 // time relative to the best solver
	Fraction float64 // fraction of problems solved within X× of the best
}

// Profiles computes Dolan–Moré performance profiles for a set of samples
// covering the same matrices with different solvers. The result maps
// solver name to its profile curve, with X clipped at xmax.
func Profiles(samples []Sample, xmax float64) map[string][]ProfilePoint {
	// Group: matrix -> solver -> seconds.
	byMatrix := map[string]map[string]float64{}
	solvers := map[string]bool{}
	for _, s := range samples {
		if byMatrix[s.Matrix] == nil {
			byMatrix[s.Matrix] = map[string]float64{}
		}
		sec := s.Seconds
		if s.Failed || sec <= 0 {
			sec = math.Inf(1)
		}
		byMatrix[s.Matrix][s.Solver] = sec
		solvers[s.Solver] = true
	}
	// Ratios per solver.
	ratios := map[string][]float64{}
	nmat := 0
	for _, times := range byMatrix {
		best := math.Inf(1)
		for _, sec := range times {
			if sec < best {
				best = sec
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		nmat++
		for solver := range solvers {
			sec, ok := times[solver]
			r := math.Inf(1)
			if ok && !math.IsInf(sec, 1) {
				r = sec / best
			}
			ratios[solver] = append(ratios[solver], r)
		}
	}
	out := map[string][]ProfilePoint{}
	for solver, rs := range ratios {
		sort.Float64s(rs)
		var curve []ProfilePoint
		for i, r := range rs {
			if r > xmax {
				break
			}
			curve = append(curve, ProfilePoint{X: r, Fraction: float64(i+1) / float64(nmat)})
		}
		out[solver] = curve
	}
	return out
}

// FractionBest reports the fraction of matrices on which the solver is the
// fastest (the paper's "best solver for ~77% of problems" statements).
func FractionBest(samples []Sample, solver string) float64 {
	byMatrix := map[string]map[string]float64{}
	for _, s := range samples {
		if byMatrix[s.Matrix] == nil {
			byMatrix[s.Matrix] = map[string]float64{}
		}
		sec := s.Seconds
		if s.Failed || sec <= 0 {
			sec = math.Inf(1)
		}
		byMatrix[s.Matrix][s.Solver] = sec
	}
	wins, total := 0, 0
	for _, times := range byMatrix {
		best, bestSolver := math.Inf(1), ""
		for sv, sec := range times {
			if sec < best {
				best, bestSolver = sec, sv
			}
		}
		if bestSolver == "" {
			continue
		}
		total++
		if bestSolver == solver {
			wins++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wins) / float64(total)
}

// Table formats rows as an aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// TrendLine fits y = a + b·x by least squares (Figure 8's linear trend).
func TrendLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}
