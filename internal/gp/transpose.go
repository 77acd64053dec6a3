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
	for j := f.N - 1; j >= 0; j-- {
		yj := y[j]
		for p := f.L.Colptr[j] + 1; p < f.L.Colptr[j+1]; p++ {
			yj -= float64(f.L.Values[p] * y[f.L.Rowidx[p]])
		}
		y[j] = yj
	}
}

// USolveT solves Uᵀ x = y in place. Uᵀ is lower triangular, so the sweep
// runs forward; row j of Uᵀ is column j of U with the pivot stored last.
func (f *Factors) USolveT(y []float64) {
	for j := 0; j < f.N; j++ {
		p1 := f.U.Colptr[j+1]
		yj := y[j]
		for p := f.U.Colptr[j]; p < p1-1; p++ {
			yj -= float64(f.U.Values[p] * y[f.U.Rowidx[p]])
		}
		y[j] = yj / f.U.Values[p1-1]
	}
}

// SolveTransposeWith solves Aᵀ x = b in place using caller-provided
// scratch of at least N elements. With P A = L U (P applied by SolveWith
// as y[k] = b[P[k]]), Aᵀ = Uᵀ Lᵀ P, so x = Pᵀ L⁻ᵀ U⁻ᵀ b.
func (f *Factors) SolveTransposeWith(b, scratch []float64) {
	n := f.N
	y := scratch[:n]
	copy(y, b[:n])
	f.USolveT(y)
	f.LSolveT(y)
	for k := 0; k < n; k++ {
		b[f.P[k]] = y[k]
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
