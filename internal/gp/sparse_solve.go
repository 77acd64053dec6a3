package gp

import (
	"sort"

	"repro/internal/sparse"
)

// SolveSparseL computes x = L⁻¹·(P·b) for a sparse right-hand side b given
// as parallel (bIdx, bVal) with bIdx in the original row numbering of the
// factored block. The nonzero pattern of x is discovered by depth-first
// search in the graph of L (Gilbert–Peierls), so the cost is proportional
// to the arithmetic performed. This is the kernel Basker uses to compute
// the columns of upper off-diagonal blocks U_ij = L_ii⁻¹ P_i A_ij.
//
// The result pattern (pivot-space indices, topological order) is returned
// as a slice into ws.Xi, and the values live in ws.X at those indices. Both
// are valid only until the workspace is reused; callers must copy out and
// then call ClearSparse with the same pattern.
func (f *Factors) SolveSparseL(bIdx []int, bVal []float64, ws *Workspace) []int {
	n := f.N
	ws.Grow(n)
	ws.Tag++
	tag := ws.Tag
	top := n
	for _, r := range bIdx {
		start := f.Pinv[r]
		if ws.Mark[start] == tag {
			continue
		}
		top = dfsFinal(start, f.L, ws.Xi, top, ws.Pstack, ws.Mark, tag, f.PruneEnd)
	}
	pattern := ws.Xi[top:n]
	for k, r := range bIdx {
		ws.X[f.Pinv[r]] += bVal[k]
	}
	x := ws.X
	for _, j := range pattern {
		xj := x[j]
		if xj == 0 {
			continue
		}
		rows := f.L.Rowidx[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
		vals := f.L.Values[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
		vals = vals[:len(rows)] // bounds-check elimination hint
		for p, i := range rows {
			x[i] -= float64(vals[p] * xj)
		}
	}
	return pattern
}

// ClearSparse zeroes the workspace values over a pattern returned by
// SolveSparseL.
func ClearSparse(ws *Workspace, pattern []int) {
	for _, j := range pattern {
		ws.X[j] = 0
	}
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

// LowerBlockSolveInto computes X solving X·U = B column by column, where U is
// this factorization's upper factor and B is a sparse block whose rows are
// *outside* the factored block (so no pivoting interaction). This produces
// Basker's lower off-diagonal blocks L_ki from A_ki: column c satisfies
//
//	X(:,c) = (B(:,c) − Σ_{t<c, U(t,c)≠0} X(:,t)·U(t,c)) / U(c,c).
//
// The returned block has sorted columns. mark/acc are caller-provided
// workspaces of length ≥ B.M (acc zeroed); they come back clean.
//
// The output pattern is structural: entries whose value works out to exact
// zero are kept, so the pattern depends only on the patterns of B and the
// factors — the invariant that lets RefactorLowerBlockFrom refresh the
// block's values in place for a same-pattern matrix.
//
// A nil dst allocates the result; a non-nil dst is recycled storage whose
// entry slices are reset and refilled (growing only if the new pattern is
// larger), so repeated fresh factorizations on a fixed input pattern stop
// allocating block storage.
func (f *Factors) LowerBlockSolveInto(dst, b *sparse.CSC, mark []int, tagp *int, acc []float64) *sparse.CSC {
	x := dst
	if x == nil {
		x = sparse.NewCSC(b.M, b.N, b.Nnz()*2)
	} else {
		x.ResetShape(b.M, b.N)
	}
	var patt []int
	for c := 0; c < b.N; c++ {
		*tagp++
		tag := *tagp
		patt = patt[:0]
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			i := b.Rowidx[p]
			if mark[i] != tag {
				mark[i] = tag
				patt = append(patt, i)
			}
			acc[i] += b.Values[p]
		}
		// Accumulate -X(:,t)*U(t,c) for t < c in U(:,c)'s pattern. U's
		// stored entries are nonzero at factorization time, so iterating
		// the whole pattern keeps the result pattern structural.
		up0, up1 := f.U.Colptr[c], f.U.Colptr[c+1]
		for p := up0; p < up1-1; p++ {
			t := f.U.Rowidx[p]
			utc := f.U.Values[p]
			rows := x.Rowidx[x.Colptr[t]:x.Colptr[t+1]]
			vals := x.Values[x.Colptr[t]:x.Colptr[t+1]]
			vals = vals[:len(rows)] // bounds-check elimination hint
			for qi, i := range rows {
				acc[i] -= float64(vals[qi] * utc)
				if mark[i] != tag {
					mark[i] = tag
					patt = append(patt, i)
				}
			}
		}
		piv := f.U.Values[up1-1]
		sortInts(patt)
		for _, i := range patt {
			x.Rowidx = append(x.Rowidx, i)
			x.Values = append(x.Values, acc[i]/piv)
			acc[i] = 0
		}
		x.Colptr[c+1] = len(x.Rowidx)
	}
	return x
}

// RefactorLowerBlockFrom recomputes columns c0..N-1 of dst = B·U⁻¹ in place
// for a same-pattern B, where dst was produced by LowerBlockSolveInto
// against the matrix originally factored and f's values have already been
// refreshed (Refactor). Because LowerBlockSolveInto patterns are
// structural, every index touched by the recomputation lies inside dst's
// fixed column patterns, so the sweep needs no pattern discovery and
// performs no allocation. acc must have length ≥ B.M and arrive zeroed; it
// comes back clean. c0 = 0 is the full refresh. Column c of the result
// depends only on input column c, factor
// column U(:,c) and earlier result columns, so when neither the input's
// columns before c0 nor the factor's columns before c0 changed since the
// last refresh, the prefix is already correct and recomputing the suffix
// alone matches a full refresh bitwise — the per-column granularity the
// incremental sweep applies to fine-ND leaf kernels.
func (f *Factors) RefactorLowerBlockFrom(dst, b *sparse.CSC, acc []float64, c0 int) {
	for c := c0; c < b.N; c++ {
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			acc[b.Rowidx[p]] += b.Values[p]
		}
		up0, up1 := f.U.Colptr[c], f.U.Colptr[c+1]
		for p := up0; p < up1-1; p++ {
			t := f.U.Rowidx[p]
			utc := f.U.Values[p]
			if utc == 0 {
				continue // refreshed value drifted to zero: contribution vanishes
			}
			for q := dst.Colptr[t]; q < dst.Colptr[t+1]; q++ {
				acc[dst.Rowidx[q]] -= float64(dst.Values[q] * utc)
			}
		}
		piv := f.U.Values[up1-1]
		for p := dst.Colptr[c]; p < dst.Colptr[c+1]; p++ {
			i := dst.Rowidx[p]
			dst.Values[p] = acc[i] / piv
			acc[i] = 0
		}
	}
}

// RefactorUpperBlockFrom recomputes columns c0..N-1 of dst = L⁻¹·P·B in
// place for a same-pattern B, where dst's columns hold the (structural,
// sorted, pivot-space) patterns discovered by SolveSparseL at factorization
// time and f's values have already been refreshed. Ascending pivot order is
// a topological order of the forward solve, so each column is one masked
// substitution pass; no DFS, no allocation. ws provides the dense
// accumulator. c0 = 0 is the full refresh. Unlike the lower-block sweep,
// each output column here is
// independent of the others but reads the whole of L, so the suffix
// restriction is sound only when the factor itself did not change this
// sweep and every changed input column lies at or beyond c0.
func (f *Factors) RefactorUpperBlockFrom(dst, b *sparse.CSC, ws *Workspace, c0 int) {
	ws.Grow(f.N)
	x := ws.X
	for c := c0; c < b.N; c++ {
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			x[f.Pinv[b.Rowidx[p]]] = b.Values[p]
		}
		for p := dst.Colptr[c]; p < dst.Colptr[c+1]; p++ {
			r := dst.Rowidx[p]
			xr := x[r]
			dst.Values[p] = xr
			x[r] = 0
			if xr == 0 {
				continue
			}
			for q := f.L.Colptr[r] + 1; q < f.L.Colptr[r+1]; q++ {
				x[f.L.Rowidx[q]] -= float64(f.L.Values[q] * xr)
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
