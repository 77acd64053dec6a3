package gp

// Transpose triangular solves. The condition estimator (Hager/Higham,
// driven from internal/core) needs A⁻ᵀ applications through the existing
// factors; with L stored unit-diagonal-first and U pivot-last per sorted
// column, each transpose solve is one pass over the same storage in the
// opposite direction, accumulating dot products instead of scattering
// updates.

// LSolveT solves Lᵀ x = y in place. Lᵀ is unit upper triangular, so the
// sweep runs backward; row j of Lᵀ is column j of L (entries below the
// diagonal).
func (f *Factors) LSolveT(y []float64) {
	lp, li, lx := f.L.Colptr, f.L.Rowidx, f.L.Values
	for j := f.N - 1; j >= 0; j-- {
		p0, p1 := lp[j]+1, lp[j+1]
		rows, vals := li[p0:p1], lx[p0:p1]
		vals = vals[:len(rows)]
		yj := y[j]
		for q, i := range rows {
			yj -= float64(vals[q] * y[i])
		}
		y[j] = yj
	}
}

// USolveT solves Uᵀ x = y in place. Uᵀ is lower triangular, so the sweep
// runs forward; row j of Uᵀ is column j of U with the pivot stored last.
func (f *Factors) USolveT(y []float64) {
	up, ui, ux := f.U.Colptr, f.U.Rowidx, f.U.Values
	for j := range f.N {
		p0, p1 := up[j], up[j+1]-1
		rows, vals := ui[p0:p1], ux[p0:p1]
		vals = vals[:len(rows)]
		yj := y[j]
		for q, i := range rows {
			yj -= float64(vals[q] * y[i])
		}
		y[j] = yj / ux[p1]
	}
}

// MaxAbsU reports the largest absolute value stored in U — the numerator
// side of the reciprocal pivot-growth diagnostic. One O(nnz U) pass over
// finished storage; nothing on the factorization hot path.
func (f *Factors) MaxAbsU() float64 {
	m := 0.0
	for _, v := range f.U.Values[:f.U.Nnz()] {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
