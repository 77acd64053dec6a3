package gp

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// This file is the refresh-sweep side of the dense-fed kernel set: in-place
// value refreshes for factors and off-diagonal blocks that were *built* by
// the dense panel layer (dense_feed.go). Dense-built blocks are structural
// fully dense — every column is a contiguous slice of the CSC value array —
// so the refresh arithmetic runs on contiguous storage with no pattern
// indirection: the same flops as the entry-at-a-time sparse refresh, much
// better constants.
//
// Bitwise contracts, matching the sparse refresh kernels exactly:
//   - RefactorDense is bitwise identical to Refactor on a dense-built
//     factor (same per-element operand order, same skip-on-zero tests,
//     division by the pivot rather than reciprocal multiplication);
//   - the *From/*Selective suffix restrictions produce values bitwise
//     identical to the corresponding full refresh, which is what keeps
//     RefactorPartial bitwise-equal to a full Refactor when the fine-ND
//     sweeps dispatch dense-built kernels here.

// RefactorDense recomputes the numeric values of a dense-built factorization
// for a new matrix a with the same pattern, reusing the pivot sequence: a is
// scattered into a pooled panel in pivot order, eliminated right-looking
// with no pivot search, and copied back over the fixed fully dense factor
// patterns. The per-element update sequence matches the left-looking
// refactorColumn exactly (column j's update of column k uses the same
// operands in the same order at both orientations), so the result is
// bitwise identical to Refactor — only the memory traffic differs. The
// caller must guarantee f was built by FactorDenseInto.
func (f *Factors) RefactorDense(a *sparse.CSC, dws *dense.Workspace) error {
	return f.refactorDenseFrom(a, dws, 0)
}

// RefactorDenseSelective is the dense counterpart of RefactorSelective.
// Dense-built U columns are structurally full (U(:,k) holds every row
// 0..k-1), so the sparse closure rule — rerun column k when its input
// changed or when any already-rerun column appears in U(:,k)'s pattern —
// degenerates to the contiguous suffix starting at the first stamped
// column. rerun is overwritten with that suffix so the caller sees the
// same contract as the sparse kernel.
func (f *Factors) RefactorDenseSelective(a *sparse.CSC, dws *dense.Workspace, colStamp []uint64, epoch uint64, rerun []bool) error {
	n := f.N
	k0 := -1
	for k := 0; k < n; k++ {
		if colStamp[k] == epoch {
			k0 = k
			break
		}
	}
	if k0 < 0 {
		clear(rerun[:n])
		return nil
	}
	for k := 0; k < n; k++ {
		rerun[k] = k >= k0
	}
	return f.refactorDenseFrom(a, dws, k0)
}

// refactorDenseFrom refreshes factor columns k0..n-1 through the panel.
// Columns before k0 keep their values; only their L entries (already
// divided by their pivots) are loaded into the panel to feed the suffix
// updates. On a singular drifted pivot the factor values are left
// untouched (the panel is pooled scratch), and the caller falls back to a
// fresh factorization exactly as with the sparse refresh.
func (f *Factors) refactorDenseFrom(a *sparse.CSC, dws *dense.Workspace, k0 int) error {
	n := f.N
	if a.M != n || a.N != n {
		return fmt.Errorf("gp: refactor dimension mismatch")
	}
	panel := dws.Panel(n, n)
	for j := 0; j < k0; j++ {
		copy(panel.Col(j)[j+1:], f.L.Values[f.L.Colptr[j]+1:f.L.Colptr[j+1]])
	}
	for j := k0; j < n; j++ {
		col := panel.Col(j)
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			col[f.Pinv[a.Rowidx[p]]] = a.Values[p]
		}
	}
	for d := 0; d < n; d++ {
		cd := panel.Col(d)
		if d >= k0 {
			piv := cd[d]
			if piv == 0 {
				return fmt.Errorf("gp: dense refactor column %d: %w", d, ErrSingular)
			}
			for i := d + 1; i < n; i++ {
				cd[i] /= piv
			}
		}
		lo := cd[d+1:]
		j0 := d + 1
		if j0 < k0 {
			j0 = k0
		}
		for j := j0; j < n; j++ {
			cj := panel.Col(j)
			fjd := cj[d]
			if fjd == 0 {
				continue
			}
			tgt := cj[d+1:]
			tgt = tgt[:len(lo)] // bounds-check elimination hint
			for i, v := range lo {
				tgt[i] -= v * fjd
			}
		}
	}
	for k := k0; k < n; k++ {
		col := panel.Col(k)
		up0 := f.U.Colptr[k]
		copy(f.U.Values[up0:up0+k+1], col[:k+1])
		lp0 := f.L.Colptr[k]
		copy(f.L.Values[lp0+1:f.L.Colptr[k+1]], col[k+1:])
	}
	return nil
}

// DenseUpperRefactorFrom refreshes columns c0..N-1 of a dense-built upper
// block dst = L⁻¹·P·B in place for a same-pattern B. dst's columns are
// contiguous fully dense slices of its value array, so the forward
// substitution runs directly on the destination storage — no panel, no
// scatter-back. The arithmetic per column matches DenseUpperSolveInto (and
// therefore RefactorUpperBlockFrom) bitwise. The suffix restriction carries
// RefactorUpperBlockFrom's contract: sound only when the factor did not
// change this sweep and every changed input column lies at or beyond c0.
func (f *Factors) DenseUpperRefactorFrom(dst, b *sparse.CSC, c0 int) {
	w := f.N
	for c := c0; c < b.N; c++ {
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
				tgt[i] -= v * xd
			}
		}
	}
}

// DenseLowerRefactorFrom refreshes columns c0..N-1 of a dense-built lower
// block dst solving X·U = B in place for a same-pattern B: the left-looking
// TRSM of DenseLowerSolveInto running directly on dst's contiguous columns.
// Earlier columns are read in place — ascending order guarantees they were
// refreshed (or were already correct) before being consumed, the same
// dependency argument as RefactorLowerBlockFrom, whose arithmetic this
// matches bitwise.
func (f *Factors) DenseLowerRefactorFrom(dst, b *sparse.CSC, c0 int) {
	for c := c0; c < b.N; c++ {
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
				xc[i] -= xt[i] * utc
			}
		}
		piv := uv[c]
		for i := range xc {
			xc[i] /= piv
		}
	}
}
