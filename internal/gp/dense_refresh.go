package gp

import "repro/internal/sparse"

// This file is the dense-fed off-diagonal kernels: the upper and lower
// blocks coupled to a dense-built diagonal (dense_feed.go). Such blocks are
// structural fully dense — every column is a contiguous slice of the CSC
// value array — so the arithmetic runs on contiguous storage with no
// pattern indirection: the same flops as the entry-at-a-time sparse
// kernels, much better constants. One kernel per side serves every sweep:
// a fresh factorization gives the block the fully dense shape
// (sparse.FillDense with nil data) and runs it from column 0, since each
// column is cleared before its input is scattered; a refresh runs it in
// place. A dense-built diagonal factor needs no kernel here: it is the
// single supernode [0, N), refreshed by Refactor/RefactorSelective through
// the supernode panel elimination, whose per-element operand order,
// skip-on-zero tests and division by the pivot match the column refresh
// exactly.

// DenseUpperRefactor refreshes a dense-built upper block dst = L⁻¹·P·B in
// place for a same-pattern B. dst's columns are contiguous fully dense
// slices of its value array, so the forward substitution runs directly on
// the destination storage — no panel, no scatter-back. The arithmetic per
// column matches RefactorUpperBlock bitwise.
func (f *Factors) DenseUpperRefactor(dst, b *sparse.CSC) {
	w := f.N
	for c := 0; c < b.N; c++ {
		x := dst.Values[dst.Colptr[c]:dst.Colptr[c+1]]
		clear(x)
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			x[f.Pinv[b.Rowidx[p]]] = b.Values[p]
		}
		for d := 0; d < w; d++ {
			xd := x[d]
			if xd == 0 {
				continue
			}
			lv := f.L.Values[f.L.Colptr[d]+1 : f.L.Colptr[d+1]]
			tgt := x[d+1:]
			tgt = tgt[:len(lv)] // bounds-check elimination hint
			for i, v := range lv {
				tgt[i] -= float64(v * xd)
			}
		}
	}
}

// DenseLowerRefactor refreshes a dense-built lower block dst solving
// X·U = B in place for a same-pattern B: a left-looking TRSM running
// directly on dst's contiguous columns. Earlier columns are read in place,
// refreshed before they are consumed, as in RefactorLowerBlock, whose
// arithmetic this matches bitwise.
func (f *Factors) DenseLowerRefactor(dst, b *sparse.CSC) {
	for c := 0; c < b.N; c++ {
		xc := dst.Values[dst.Colptr[c]:dst.Colptr[c+1]]
		clear(xc)
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			xc[b.Rowidx[p]] = b.Values[p]
		}
		uv := f.U.Values[f.U.Colptr[c]:f.U.Colptr[c+1]] // rows 0..c, pivot last
		for t := 0; t < c; t++ {
			utc := uv[t]
			if utc == 0 {
				continue
			}
			xt := dst.Values[dst.Colptr[t]:dst.Colptr[t+1]]
			xt = xt[:len(xc)] // bounds-check elimination hint
			for i := range xc {
				xc[i] -= float64(xt[i] * utc)
			}
		}
		piv := uv[c]
		for i := range xc {
			xc[i] /= piv
		}
	}
}
