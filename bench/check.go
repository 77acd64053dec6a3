package main

import (
	"math"

	"repro/internal/sparse"
)

// residualTol is the scaled-residual limit above which a solve counts as a
// failed op; oracleTol is the componentwise agreement required with the
// independent KLU solve of the same system.
const (
	residualTol = 1e-10
	oracleTol   = 1e-8
)

// checker computes scaled residuals with reusable scratch. Not safe for
// concurrent use; every worker owns one.
type checker struct {
	y, rowSum []float64
}

func newChecker(n int) *checker {
	return &checker{y: make([]float64, n), rowSum: make([]float64, n)}
}

// residual returns ‖A·x−b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞), NaN-propagating so a
// non-finite solution fails the check.
func (c *checker) residual(a *sparse.CSC, x, b []float64) float64 {
	n := a.N
	y, rs := c.y[:n], c.rowSum[:n]
	for i := range y {
		y[i], rs[i] = 0, 0
	}
	xMax := 0.0
	for j := 0; j < n; j++ {
		xj := x[j]
		if ax := math.Abs(xj); ax > xMax || math.IsNaN(ax) {
			xMax = ax
		}
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i, v := a.Rowidx[p], a.Values[p]
			y[i] += v * xj
			rs[i] += math.Abs(v)
		}
	}
	rMax, aMax, bMax := 0.0, 0.0, 0.0
	for i := range y {
		if r := math.Abs(y[i] - b[i]); r > rMax || math.IsNaN(r) {
			rMax = r
		}
		aMax = math.Max(aMax, rs[i])
		bMax = math.Max(bMax, math.Abs(b[i]))
	}
	return rMax / (aMax*xMax + bMax)
}

func (c *checker) ok(a *sparse.CSC, x, b []float64) bool {
	return c.residual(a, x, b) <= residualTol // false for NaN
}

// agree reports whether x matches the oracle solution y componentwise:
// |xᵢ−yᵢ| ≤ oracleTol·(|yᵢ| + ‖y‖∞).
func agree(x, y []float64) bool {
	yMax := 0.0
	for _, v := range y {
		yMax = math.Max(yMax, math.Abs(v))
	}
	for i := range x {
		if !(math.Abs(x[i]-y[i]) <= oracleTol*(math.Abs(y[i])+yMax)) {
			return false
		}
	}
	return true
}
