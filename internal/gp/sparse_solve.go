package gp

import (
	"slices"
	"sort"

	"repro/internal/sparse"
)

// The sparse off-diagonal couplings of Basker's 2D layout: the upper
// blocks U_kj = L_kk⁻¹·P_k·Â_kj and the lower blocks L_ij solving
// X·U_jj = Â_ij. Each is built in two steps — a pattern-only pass shapes the
// block, then the refresh kernel (RefactorUpperBlock, RefactorLowerBlock)
// fills every value — so a fresh
// factorization and every refresh run one arithmetic, and a refresh on the
// values a factorization saw is a bitwise no-op. The patterns are
// structural (reach closures and unions, exact zeros kept), which is what
// lets the refreshes work in place without pattern discovery.

// UpperBlockPattern shapes dst as the pattern of L⁻¹·P·B: column c holds
// the reach of B(:,c)'s rows in the graph of L, in pivot space and
// ascending, found by depth-first search over the pruned prefix of every L
// column (Gilbert–Peierls). The values are left unspecified for
// RefactorUpperBlock to fill. A nil dst allocates; a
// non-nil dst is recycled storage, so repeated fresh factorizations on a
// fixed input pattern stop allocating block storage.
func (f *Factors) UpperBlockPattern(dst, b *sparse.CSC, ws *Workspace) *sparse.CSC {
	if dst == nil {
		dst = sparse.NewCSC(b.M, b.N, b.Nnz()*2)
	} else {
		dst.ResetShape(b.M, b.N)
	}
	n := f.N
	ws.Grow(n)
	for c := 0; c < b.N; c++ {
		ws.Tag++
		top := n
		for _, r := range b.Rowidx[b.Colptr[c]:b.Colptr[c+1]] {
			if start := f.Pinv[r]; ws.Mark[start] != ws.Tag {
				top = dfsFinal(start, f.L, ws.Xi, top, ws.Pstack, ws.Mark, ws.Tag, f.PruneEnd)
			}
		}
		p0 := len(dst.Rowidx)
		dst.Rowidx = append(dst.Rowidx, ws.Xi[top:n]...)
		sortInts(dst.Rowidx[p0:])
		dst.Colptr[c+1] = len(dst.Rowidx)
	}
	dst.Values = slices.Grow(dst.Values, len(dst.Rowidx))[:len(dst.Rowidx)]
	return dst
}

// dfsFinal is the DFS over a *finished* L whose row indices are already in
// pivot order: node j's children are the below-diagonal rows of L(:,j),
// bounded by the symmetric-pruning prefix when pruneEnd is non-nil
// (reachability is preserved — see Factors.PruneEnd).
func dfsFinal(start int, l *sparse.CSC, xi []int, top int, pstack, mark []int, tag int, pruneEnd []int) int {
	head := 0
	xi[head] = start
	for head >= 0 {
		j := xi[head]
		if mark[j] != tag {
			mark[j] = tag
			pstack[head] = l.Colptr[j] + 1 // skip unit diagonal
		}
		pend := l.Colptr[j+1]
		if pruneEnd != nil {
			pend = pruneEnd[j]
		}
		done := true
		for p := pstack[head]; p < pend; p++ {
			child := l.Rowidx[p]
			if mark[child] == tag {
				continue
			}
			pstack[head] = p + 1
			head++
			xi[head] = child
			done = false
			break
		}
		if done {
			head--
			top--
			xi[top] = j
		}
	}
	return top
}

// RefactorLowerBlock recomputes dst solving X·U = B in place, where U is
// f's upper factor and B a block whose rows lie outside the factored block
// (so no pivoting interaction): column c is
//
//	X(:,c) = (B(:,c) − Σ_{t<c, U(t,c)≠0} X(:,t)·U(t,c)) / U(c,c).
//
// dst's column c holds the union of B(:,c)'s rows and the rows of X(:,t)
// for every t in U(:,c)'s pattern — structural, so every index touched lies
// inside it and the sweep needs no pattern discovery and performs no
// allocation. acc must have length ≥ B.M and arrive zeroed; it comes back
// clean. The fresh build and every refresh run it whole.
func (f *Factors) RefactorLowerBlock(dst, b *sparse.CSC, acc []float64) {
	up, ui, ux := f.U.Colptr, f.U.Rowidx, f.U.Values
	bp, bi, bx := b.Colptr, b.Rowidx, b.Values
	dp, di, dx := dst.Colptr, dst.Rowidx, dst.Values
	for c := 0; c < b.N; c++ {
		brows, bvals := bi[bp[c]:bp[c+1]], bx[bp[c]:bp[c+1]]
		bvals = bvals[:len(brows)]
		for q, i := range brows {
			acc[i] += bvals[q]
		}
		u0, u1 := up[c], up[c+1]-1
		urows, uvals := ui[u0:u1], ux[u0:u1]
		uvals = uvals[:len(urows)]
		for p, t := range urows {
			utc := uvals[p]
			if utc == 0 {
				continue // a zero multiplier contributes nothing
			}
			rows, vals := di[dp[t]:dp[t+1]], dx[dp[t]:dp[t+1]]
			vals = vals[:len(rows)]
			for q, i := range rows {
				acc[i] -= float64(vals[q] * utc)
			}
		}
		piv := ux[u1]
		rows, vals := di[dp[c]:dp[c+1]], dx[dp[c]:dp[c+1]]
		vals = vals[:len(rows)]
		for q, i := range rows {
			vals[q] = acc[i] / piv
			acc[i] = 0
		}
	}
}

// RefactorUpperBlock recomputes dst = L⁻¹·P·B in place over the
// (structural, sorted, pivot-space) patterns UpperBlockPattern gave it.
// Ascending pivot order is a topological order of the forward solve, so
// each column is one masked substitution pass; no DFS, no allocation. ws
// provides the dense accumulator. The fresh build and every refresh run it
// whole.
func (f *Factors) RefactorUpperBlock(dst, b *sparse.CSC, ws *Workspace) {
	ws.Grow(f.N)
	x, pinv := ws.X, f.Pinv
	lp, li, lx := f.L.Colptr, f.L.Rowidx, f.L.Values
	bp, bi, bx := b.Colptr, b.Rowidx, b.Values
	dp, di, dx := dst.Colptr, dst.Rowidx, dst.Values
	for c := 0; c < b.N; c++ {
		brows, bvals := bi[bp[c]:bp[c+1]], bx[bp[c]:bp[c+1]]
		bvals = bvals[:len(brows)]
		for q, r := range brows {
			x[pinv[r]] = bvals[q]
		}
		drows, dvals := di[dp[c]:dp[c+1]], dx[dp[c]:dp[c+1]]
		dvals = dvals[:len(drows)]
		for p, r := range drows {
			xr := x[r]
			dvals[p] = xr
			x[r] = 0
			if xr == 0 {
				continue
			}
			rows, vals := li[lp[r]+1:lp[r+1]], lx[lp[r]+1:lp[r+1]]
			vals = vals[:len(rows)]
			for q, i := range rows {
				x[i] -= float64(vals[q] * xr)
			}
		}
	}
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// sortInts sorts a column pattern in place: insertion sort on the short
// segments that dominate circuit matrices, pdqsort on long separator
// patterns where O(k²) would show up.
func sortInts(a []int) {
	if len(a) <= 24 {
		insertionSortInts(a)
		return
	}
	sort.Ints(a)
}
