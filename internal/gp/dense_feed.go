package gp

import (
	"fmt"

	"repro/internal/sparse"
)

// This file is the dense-fed side of the Gilbert–Peierls kernel set: entry
// points that run a kernel's arithmetic through a column-major dense panel
// (internal/dense) and scatter the result back into the ordinary sparse
// factor representation. The fine-ND engine routes fill-heavy separator
// kernels here; everything downstream — triangular solves, off-diagonal
// kernels, in-place refactorization, the factorization pool — consumes the
// emitted Factors and CSC blocks exactly as if the sparse kernels had
// produced them.
//
// Emitted patterns are *structural fully dense*: every L column stores rows
// k..n-1 and every U column rows 0..k (exact zeros included), the same
// values-independent-pattern invariant the sparse kernels guarantee, which
// is what lets Refactor/RefactorPartial refresh dense-built blocks in
// place. The per-element update order of every dense kernel matches the
// corresponding in-place refresh sweep (ascending elimination order,
// division by the pivot rather than reciprocal multiplication), so a
// same-values refresh after a dense-fed factorization is a bitwise no-op.

// FactorDenseInto factors the square block a through the dense panel layer,
// recycling f's storage like FactorInto: a is scattered into a pooled
// column-major panel, factored by right-looking LU with the same
// diagonal-preference partial pivoting as the sparse kernel, and emitted as
// structural fully dense factors, recorded as the single supernode [0, n)
// so that Refactor refreshes them through the supernode panel. ws provides
// the pooled panel; on error f's contents are unspecified (retrying is
// fine).
func FactorDenseInto(f *Factors, a *sparse.CSC, opts Options, ws *Workspace) error {
	if a.M != a.N {
		return fmt.Errorf("gp: matrix must be square, got %d×%d", a.M, a.N)
	}
	n := a.N
	panel := ws.Panel(n, n)
	for j := 0; j < n; j++ {
		col := panel.Col(j)
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			col[a.Rowidx[p]] = a.Values[p]
		}
	}
	rows := ws.panels.Rows(n)
	for i := range rows {
		rows[i] = i
	}
	if err := panel.LUPartialPivot(opts.tol(), opts.NoPivot, rows); err != nil {
		return fmt.Errorf("gp: dense panel: %w", ErrSingular)
	}

	// Emit in pivot order: position k of the panel is pivot row k.
	nnzHalf := n * (n + 1) / 2
	f.resetPatterns(n, nnzHalf)
	f.P = sparse.GrowInts(f.P, n)
	f.Pinv = sparse.GrowInts(f.Pinv, n)
	f.Flops = 0
	f.Snodes = append(f.Snodes[:0], 0, n)
	f.snBlocked = append(f.snBlocked[:0], false)
	for k := 0; k < n; k++ {
		f.P[k] = rows[k]
		f.Pinv[rows[k]] = k
	}
	for k := 0; k < n; k++ {
		col := panel.Col(k)
		for i := 0; i <= k; i++ {
			f.U.Rowidx = append(f.U.Rowidx, i)
			f.U.Values = append(f.U.Values, col[i])
		}
		f.U.Colptr[k+1] = len(f.U.Rowidx)
		f.L.Rowidx = append(f.L.Rowidx, k)
		f.L.Values = append(f.L.Values, 1)
		for i := k + 1; i < n; i++ {
			f.L.Rowidx = append(f.L.Rowidx, i)
			f.L.Values = append(f.L.Values, col[i])
		}
		f.L.Colptr[k+1] = len(f.L.Rowidx)
		f.Flops += int64(n-k-1) * int64(n-k)
	}

	// Symmetric-prune boundaries are trivial for dense columns: U(j,j+1) is
	// structural and L(:,j) holds pivot row j+1, so every column prunes at
	// step j+1 and the finished-factor DFS prefix is the single entry below
	// the unit diagonal — reach sets over the dense L degenerate to a chain.
	if !opts.NoPrune {
		f.PruneEnd = sparse.GrowInts(f.PruneEnd, n)
		for j := 0; j < n; j++ {
			pe := f.L.Colptr[j] + 2
			if p1 := f.L.Colptr[j+1]; pe > p1 {
				pe = p1
			}
			f.PruneEnd[j] = pe
		}
	} else {
		f.PruneEnd = nil
	}
	return nil
}

// DenseUpperSolveInto computes U_kj = L⁻¹·P·b for a factorization built by
// FactorDenseInto, writing a structural fully dense result into recycled
// storage (dst may be nil): one forward-substitution sweep per column over
// the panel, reading f's contiguous dense L columns directly — no reach
// DFS, no pattern sort. The caller must guarantee f is dense-built; the
// arithmetic per column matches RefactorUpperBlockFrom's masked substitution,
// so a same-values refresh reproduces the block bitwise.
func (f *Factors) DenseUpperSolveInto(dst, b *sparse.CSC, ws *Workspace) *sparse.CSC {
	w, nc := f.N, b.N
	panel := ws.Panel(w, nc)
	for c := 0; c < nc; c++ {
		col := panel.Col(c)
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			col[f.Pinv[b.Rowidx[p]]] = b.Values[p]
		}
	}
	for c := 0; c < nc; c++ {
		x := panel.Col(c)
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
	return sparse.FillDense(dst, w, nc, panel.Data)
}

// DenseLowerSolveInto computes X solving X·U = B against a dense-built
// factorization's upper factor (Basker's lower off-diagonal kernel), with B
// rows outside the factored block: a left-looking TRSM over the panel
// reading f's contiguous dense U columns. Output is structural fully dense
// into recycled storage (dst may be nil). The per-column arithmetic matches
// RefactorLowerBlockFrom, so a same-values refresh reproduces the block
// bitwise.
func (f *Factors) DenseLowerSolveInto(dst, b *sparse.CSC, ws *Workspace) *sparse.CSC {
	h, w := b.M, b.N
	panel := ws.Panel(h, w)
	for c := 0; c < w; c++ {
		col := panel.Col(c)
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			col[b.Rowidx[p]] = b.Values[p]
		}
	}
	for c := 0; c < w; c++ {
		uv := f.U.Values[f.U.Colptr[c]:f.U.Colptr[c+1]] // rows 0..c, pivot last
		xc := panel.Col(c)
		for t := 0; t < c; t++ {
			utc := uv[t]
			if utc == 0 {
				continue
			}
			xt := panel.Col(t)
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
	return sparse.FillDense(dst, h, w, panel.Data)
}
