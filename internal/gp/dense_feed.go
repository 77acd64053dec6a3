package gp

import (
	"fmt"

	"repro/internal/sparse"
)

// This file is the dense-fed diagonal factorization: FactorDenseInto runs
// a block's LU through one pooled column-major panel — the pivoting
// eliminatePanel of snode.go — and scatters the result back into the
// ordinary sparse factor representation. The fine-ND engine routes
// fill-heavy separator diagonals here; everything downstream — triangular
// solves, off-diagonal kernels (dense_refresh.go builds and refreshes the
// dense ones), in-place refactorization, the factorization pool — consumes
// the emitted Factors exactly as if the sparse kernels had produced them.
//
// Emitted patterns are *structural fully dense*: every L column stores rows
// k..n-1 and every U column rows 0..k (exact zeros included), the same
// values-independent-pattern invariant the sparse kernels guarantee, which
// is what lets Refactor/RefactorPartial refresh dense-built blocks in
// place. The refresh is the fixed-sequence eliminatePanel over the same
// panel, so a same-values refresh after a dense-fed factorization is a
// bitwise no-op.

// FactorDenseInto factors the square block a through the dense panel layer,
// recycling f's storage like FactorInto: a is scattered into a pooled
// column-major panel, factored by the pivoting eliminatePanel (the
// diagonal-preference partial pivoting of the sparse kernel), and emitted
// as structural fully dense factors, recorded as the single supernode [0, n)
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
	if err := eliminatePanel(panel, 0, rows, opts.tol(), opts.NoPivot); err != nil {
		return err
	}

	// Emit in pivot order, into exact-length storage: position k of the
	// panel is pivot row k.
	nnzHalf := n * (n + 1) / 2
	f.N, f.urowPtr, f.Flops = n, f.urowPtr[:0], 0
	f.L, f.U = fitCSC(f.L, n, nnzHalf), fitCSC(f.U, n, nnzHalf)
	f.P, f.Pinv = sparse.GrowInts(f.P, n), sparse.GrowInts(f.Pinv, n)
	f.Snodes = append(f.Snodes[:0], 0, n)
	f.snBlocked = append(f.snBlocked[:0], false)
	for k := 0; k < n; k++ {
		f.P[k] = rows[k]
		f.Pinv[rows[k]] = k
	}
	f.L.Colptr[0], f.U.Colptr[0] = 0, 0
	for k := 0; k < n; k++ {
		col := panel.Col(k)
		u0, l0 := f.U.Colptr[k], f.L.Colptr[k]-k
		for i := 0; i < n; i++ {
			if i <= k {
				f.U.Rowidx[u0+i], f.U.Values[u0+i] = i, col[i]
			} else {
				f.L.Rowidx[l0+i], f.L.Values[l0+i] = i, col[i]
			}
		}
		f.L.Rowidx[l0+k], f.L.Values[l0+k] = k, 1
		f.U.Colptr[k+1], f.L.Colptr[k+1] = u0+k+1, l0+n
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
