// Package gp implements the Gilbert–Peierls left-looking sparse LU
// factorization with partial pivoting (SIAM J. Sci. Stat. Comput. 9(5),
// 1988): the nonzero pattern of each factor column is discovered by a
// depth-first search in the graph of L, so the total work is proportional
// to the number of arithmetic operations. This is the algorithm KLU applies
// to every BTF diagonal block and the kernel Basker parallelizes.
//
// Every factor value has one arithmetic. A column eliminates along its U
// pattern in ascending pivot order, fresh (eliminateFresh, after the
// search) or refreshed (refactorColumn, over the fixed pattern), and every
// dense panel is one eliminatePanel (snode.go), so Refactor on the values
// FactorInto saw reproduces every bit, and symmetric pruning, which only
// shortens the searches, changes none.
//
// Factor invariants (checked by tests):
//   - L and U columns are sorted ascending by row index;
//   - L has a unit diagonal stored explicitly as the first entry of each
//     column; all indices of L and U are in pivot (final) order;
//   - U's diagonal pivot is the last entry of each column;
//   - L·U = A(P, :) up to roundoff, where P is the pivot row permutation.
package gp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// ErrSingular is returned when no acceptable pivot exists for some column
// (the matrix is numerically or structurally singular).
var ErrSingular = errors.New("gp: matrix is singular")

// Options controls pivoting behaviour.
type Options struct {
	// PivotTol is the diagonal preference threshold: the diagonal entry is
	// chosen as pivot when |a_kk| >= PivotTol * max|column|. 1.0 forces
	// true partial pivoting; small values preserve the fill-reducing
	// ordering. KLU's default is 0.001.
	PivotTol float64
	// NoPivot disables row pivoting entirely (static pivoting à la
	// SuperLU-Dist/PMKL after an MWCM permutation). Fails if a zero
	// diagonal pivot is met.
	NoPivot bool
	// NoPrune disables Eisenstat–Liu symmetric pruning of the symbolic
	// depth-first searches (the KLU optimization that restricts each DFS to
	// a pruned prefix of every L column). Exists for the ablation study;
	// the factors are identical either way, only the symbolic cost changes.
	NoPrune bool
	// Poll, when non-nil, is invoked about every pollStride columns of a
	// fresh factorization; a non-nil return aborts the kernel with that
	// error. This is the cooperative-cancellation hook of long-running
	// kernels: the parallel drivers bind it to their sweep's cancel flag so
	// a fired deadline unwinds even mid-block.
	Poll func() error
}

// pollStride is how many columns a fresh factorization processes between
// two cancellation polls — frequent enough to bound cancel latency inside
// a big block, rare enough to cost nothing.
const pollStride = 256

// DefaultPivotTol mirrors KLU's diagonal-preference default.
const DefaultPivotTol = 0.001

// pruneMinDim is the smallest dimension worth symmetric pruning: below it
// the depth-first searches are too short for the prune bookkeeping to pay.
const pruneMinDim = 48

func (o Options) tol() float64 {
	if o.PivotTol <= 0 {
		return DefaultPivotTol
	}
	return o.PivotTol
}

// Factors holds the LU factorization L·U = A(P,:).
type Factors struct {
	N    int
	L, U *sparse.CSC
	// P is new-to-old: original row P[k] is the pivot of step k.
	P []int
	// Pinv is old-to-new: Pinv[P[k]] = k.
	Pinv []int
	// PruneEnd[j] is the end position (absolute index into L.Rowidx) of the
	// Eisenstat–Liu pruned prefix of L(:,j): a depth-first search over the
	// finished factor only needs the entries in
	// [L.Colptr[j]+1, PruneEnd[j]) — every fill path through a later entry
	// also runs through the prune column, so reach sets are unchanged.
	// nil when the factorization was built with Options.NoPrune.
	PruneEnd []int
	// Flops counts multiply-add pairs performed during factorization.
	Flops int64
	// Snodes, when non-nil, is the supernode partition the factorization was
	// built with: supernode s spans columns [Snodes[s], Snodes[s+1]).
	// FactorInto records the partition it was given (nil: column at a
	// time), FactorDenseInto the single supernode [0, N). Refactor and
	// RefactorSelective dispatch on it: a nil partition refreshes column at
	// a time, a wide supernode through its panel, which relies on the
	// padded layout.
	Snodes []int
	// snBlocked[s] records, fixed when the pattern is emitted, whether wide
	// supernode s refreshes through the blocked outside update (see
	// snode.go).
	snBlocked []bool
	// urowPtr/urowCol index the pattern of U's strictly-upper part by row:
	// row j's entries lie in columns urowCol[urowPtr[j]:urowPtr[j+1]],
	// ascending — the row structure of U (Gilbert & Liu, SIMAX 1993) the
	// selective refreshes propagate their closure forward along. Built by
	// the first selective refresh, emptied wherever a pattern is emitted.
	urowPtr, urowCol []int32
}

// NnzLU reports nnz(L)+nnz(U) counting both diagonals once each (the |L+U|
// statistic of the paper's Table I counts the unit diagonal of L once).
func (f *Factors) NnzLU() int { return f.L.Nnz() + f.U.Nnz() - f.N }

// Compact clips the factor storage to its exact length, releasing the
// over-allocation retained from the symbolic nnz estimate (the 2× hint can
// leave half of each slice's capacity unused). Intended after a fresh
// factorization whose storage will be kept alive; pooled factorizations that
// will be refilled through FactorInto should keep their slack instead.
func (f *Factors) Compact() {
	f.L.Compact()
	f.U.Compact()
}

// Workspace holds the reusable scratch arrays for factorizations of
// matrices up to a given dimension; reuse across columns and across
// factorizations avoids repeated allocation (critical inside parallel
// regions, as the paper's symbolic-phase discussion stresses).
type Workspace struct {
	X      []float64 // dense accumulator
	Xi     []int     // DFS output: the reach of a column
	Pstack []int     // DFS pointer stack
	Mark   []int     // visited tags
	Tag    int
	// lpend[j] is the in-flight symmetric-pruning boundary of L(:,j) during
	// a factorization (absolute end index into L.Rowidx; -1 = not pruned).
	lpend []int
	// sn holds the staging scratch of factorSupernode, lazily built on
	// first use (nil for workspaces that never factor a wide supernode).
	sn *snScratch
	// blk is the block scratch of the blocked supernode refresh.
	blk snBlock
	// panels pools the dense panels of the supernode and dense-built
	// kernels; its buffers grow on first use, so a workspace that only
	// ever runs column kernels carries none.
	panels dense.Workspace
}

// Panel returns a zeroed rows×cols column-major panel from the
// workspace's pool, valid until the next panel taken from it: the one
// live panel of every dense kernel run through this workspace.
func (w *Workspace) Panel(rows, cols int) *dense.Matrix {
	return w.panels.Panel(rows, cols)
}

// NewWorkspace returns a workspace for dimension n.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		X:      make([]float64, n),
		Xi:     make([]int, 2*n),
		Pstack: make([]int, n),
		Mark:   make([]int, n),
		lpend:  make([]int, n),
	}
}

// Grow ensures the workspace covers dimension n.
func (w *Workspace) Grow(n int) {
	if len(w.X) >= n && len(w.lpend) >= n {
		return
	}
	w.X = make([]float64, n)
	w.Xi = make([]int, 2*n)
	w.Pstack = make([]int, n)
	w.Mark = make([]int, n)
	w.lpend = make([]int, n)
	w.Tag = 0
}

// Factor computes the LU factorization of the square matrix a column at a
// time. estNnz is a capacity hint for each factor (e.g. from a symbolic
// column-count pass); storage grows on demand if the hint is low. ws may be
// nil.
func Factor(a *sparse.CSC, estNnz int, opts Options, ws *Workspace) (*Factors, error) {
	f := &Factors{}
	if err := FactorInto(f, a, nil, estNnz, opts, ws); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto is Factor writing into caller-owned storage: f's L/U entry
// slices, permutation arrays and prune pointers are reused when large enough
// and grown otherwise, so a pooled factorization that repeats on a fixed
// pattern reaches a steady state with no allocation at all. On error f's
// contents are unspecified and must not be used for solves (retrying with a
// new matrix is fine — every call rebuilds from scratch).
//
// xsup, when non-nil, is a supernode partition as returned by
// etree.RelaxedSupernodes (supernode s spans columns [xsup[s], xsup[s+1]))
// and is recorded in f.Snodes: every wide supernode is eliminated through a
// blocked dense panel (factorSupernode, snode.go), every singleton like a
// column of a nil partition. Refactor and RefactorSelective walk the same
// partition.
func FactorInto(f *Factors, a *sparse.CSC, xsup []int, estNnz int, opts Options, ws *Workspace) error {
	if a.M != a.N {
		return fmt.Errorf("gp: matrix must be square, got %d×%d", a.M, a.N)
	}
	n := a.N
	if xsup != nil {
		if err := checkPartition(xsup, n); err != nil {
			return err
		}
	}
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.Grow(n)
	}
	if estNnz < a.Nnz()+n {
		estNnz = a.Nnz() + n
	}
	f.resetPatterns(n, estNnz)
	f.P = sparse.GrowInts(f.P, n)
	f.Pinv = sparse.GrowInts(f.Pinv, n)
	f.Flops = 0
	for i := range f.Pinv {
		f.Pinv[i] = -1
	}
	// Pruning pays for its bookkeeping only once columns are long enough
	// for the DFS to matter; tiny blocks (the fine-BTF majority) skip it.
	prune := !opts.NoPrune && n >= pruneMinDim
	for j := 0; j < n; j++ {
		ws.lpend[j] = -1 // always: a reused workspace may hold stale bounds
	}
	if prune {
		// During the factorization PruneEnd[j] records the *step* at which
		// column j was pruned (-1 = never); it is converted to a storage
		// position once L is remapped and sorted.
		f.PruneEnd = sparse.GrowInts(f.PruneEnd, n)
		for j := range f.PruneEnd {
			f.PruneEnd[j] = -1
		}
	} else {
		f.PruneEnd = nil
	}
	tol := opts.tol()

	for s, k0, poll := 0, 0, 0; k0 < n; s++ {
		k1 := k0 + 1
		if xsup != nil {
			k1 = xsup[s+1]
		}
		if opts.Poll != nil && k0 >= poll {
			poll = k0 + pollStride
			if err := opts.Poll(); err != nil {
				return err
			}
		}
		var err error
		if k1 == k0+1 {
			err = f.factorFreshColumn(a, k0, tol, opts, ws, prune)
		} else {
			err = f.factorSupernode(a, k0, k1, tol, opts, ws, prune)
		}
		if err != nil {
			return err
		}
		k0 = k1
	}

	f.finishFactor(ws, prune)
	if xsup == nil {
		f.Snodes = nil
		return nil
	}
	f.Snodes = append(f.Snodes[:0], xsup...)
	f.markBlocked(ws)
	return nil
}

// factorFreshColumn runs one column of the left-looking factorization: the
// elimination (eliminateFresh), pivot selection, U/L emission and the
// symmetric-pruning step — the per-column body shared by FactorInto for
// every column of a nil partition and every singleton supernode.
func (f *Factors) factorFreshColumn(a *sparse.CSC, k int, tol float64, opts Options, ws *Workspace, prune bool) error {
	n := f.N
	top := f.eliminateFresh(a, k, k, ws)
	x, xi := ws.X, ws.Xi

	// --- Pivot selection among unpivoted rows in the pattern.
	pivRow := -1
	pivVal := 0.0
	maxAbs := 0.0
	for t := top; t < n; t++ {
		i := xi[t]
		if f.Pinv[i] >= 0 {
			continue
		}
		v := math.Abs(x[i])
		if v > maxAbs {
			maxAbs = v
			pivRow = i
			pivVal = x[i]
		}
	}
	if opts.NoPivot {
		if f.Pinv[k] == -1 {
			if v := math.Abs(x[k]); v > 0 {
				pivRow, pivVal = k, x[k]
			} else {
				pivRow = -1
			}
		} else {
			pivRow = -1
		}
	} else if pivRow != -1 && f.Pinv[k] == -1 {
		// Diagonal preference: keep the natural pivot when acceptable.
		if v := math.Abs(x[k]); v >= tol*maxAbs && v > 0 {
			pivRow, pivVal = k, x[k]
		}
	}
	if pivRow == -1 || pivVal == 0 {
		clearX(x, xi, top, n, a, k)
		return fmt.Errorf("gp: column %d: %w", k, ErrSingular)
	}
	f.P[k] = pivRow
	f.Pinv[pivRow] = k

	// --- End U(:,k) with the pivot.
	f.U.Rowidx = append(f.U.Rowidx, k)
	f.U.Values = append(f.U.Values, pivVal)
	f.U.Colptr[k+1] = len(f.U.Rowidx)

	// --- Emit L(:,k): unit diagonal first, then unpivoted rows scaled.
	f.L.Rowidx = append(f.L.Rowidx, pivRow) // original id; remapped later
	f.L.Values = append(f.L.Values, 1)
	for t := top; t < n; t++ {
		i := xi[t]
		if f.Pinv[i] == -1 {
			f.L.Rowidx = append(f.L.Rowidx, i)
			f.L.Values = append(f.L.Values, x[i]/pivVal)
			f.Flops++
		}
	}
	f.L.Colptr[k+1] = len(f.L.Rowidx)

	clearX(x, xi, top, n, a, k)

	if prune {
		f.pruneStep(k, pivRow, ws)
	}
	return nil
}

// eliminateFresh is the elimination of every fresh column, singleton or
// inside a supernode: the symbolic reach of A(:,k) in the graph of the
// partial L (ws.Xi[top:n], returned for the pivot search and the L
// emission), then U(:,k)'s pivoted rows appended to U in ascending pivot
// order, and the numeric forward solve along them in that order — the
// operations of refactorColumn, one for one, so a refresh on the same
// values reproduces every bit. The partial L still carries original row
// ids, so x is indexed by them and U(j,k) is read at x[P[j]], final once
// every column before j has been applied. Every pattern entry is stored,
// even when its value cancelled to exact zero: the factor patterns are
// structural (the reach), which symmetric pruning and the in-place
// refreshes rely on. npiv is the number of pivots assigned (k for a
// column, the first column of a supernode inside one). x comes back holding
// the eliminated column; the caller clears it (clearX).
func (f *Factors) eliminateFresh(a *sparse.CSC, k, npiv int, ws *Workspace) int {
	n := f.N
	top := reach(f.L, f.Pinv, a, k, ws)
	x, pinv, prow := ws.X, f.Pinv, f.P
	p0, p1 := a.Colptr[k], a.Colptr[k+1]
	arows, avals := a.Rowidx[p0:p1], a.Values[p0:p1]
	avals = avals[:len(arows)]
	for t, i := range arows {
		x[i] = avals[t]
	}
	u0 := len(f.U.Rowidx)
	for _, i := range ws.Xi[top:n] {
		if j := pinv[i]; j >= 0 {
			f.U.Rowidx = append(f.U.Rowidx, j)
		}
	}
	upat := f.U.Rowidx[u0:]
	if len(upat)*8 >= npiv {
		// A dense column: read the pattern in pivot order off the reach's
		// marks instead of sorting it.
		q, mark := 0, ws.Mark
		for j, r := range prow[:npiv] {
			if mark[r] == ws.Tag {
				upat[q] = j
				q++
			}
		}
	} else {
		sortInts(upat)
	}
	l := f.L
	for _, j := range upat {
		xj := x[prow[j]]
		if xj == 0 {
			continue
		}
		q0, q1 := l.Colptr[j]+1, l.Colptr[j+1]
		rows, vals := l.Rowidx[q0:q1], l.Values[q0:q1]
		vals = vals[:len(rows)]
		for t, i := range rows {
			x[i] -= float64(vals[t] * xj)
		}
		f.Flops += int64(q1 - q0)
	}
	// Only columns before j update row P[j], so x[P[j]] kept the value
	// column j eliminated with. Appending after the loop, and reading L
	// through its header per column, keeps the inner loop free of register
	// spills.
	for _, j := range upat {
		f.U.Values = append(f.U.Values, x[prow[j]])
	}
	return top
}

// finishFactor remaps L's row indices from original ids to pivot order and
// sorts L's columns so downstream solves and refactorization can rely on
// order (U is emitted sorted), then finalizes the prune boundaries. The
// sort runs in place through the dense workspace accumulator (clean between
// columns), so it allocates nothing and skips already-sorted columns.
func (f *Factors) finishFactor(ws *Workspace, prune bool) {
	for t := 0; t < f.L.Nnz(); t++ {
		f.L.Rowidx[t] = f.Pinv[f.L.Rowidx[t]]
	}
	sortFactorColumns(f.L, ws.X)
	if prune {
		f.finishPruneEnd()
	}
}

// sortFactorColumns sorts each column's (row, value) entries ascending by
// row, scattering values through the clean dense scratch x (length >= c.M;
// returned clean). Row indices within a column are unique.
func sortFactorColumns(c *sparse.CSC, x []float64) {
	for j := 0; j < c.N; j++ {
		p0, p1 := c.Colptr[j], c.Colptr[j+1]
		rows := c.Rowidx[p0:p1]
		sorted := true
		for i := 1; i < len(rows); i++ {
			if rows[i-1] > rows[i] {
				sorted = false
				break
			}
		}
		if sorted {
			continue
		}
		vals := c.Values[p0:p1]
		vals = vals[:len(rows)]
		for i, r := range rows {
			x[r] = vals[i]
		}
		sortInts(rows)
		for i, r := range rows {
			vals[i] = x[r]
			x[r] = 0
		}
	}
}

// pruneStep applies Eisenstat–Liu symmetric pruning after pivot k has been
// chosen: for every column j with a structural entry U(j,k), if L(:,j) also
// contains the pivot row of step k, then any fill path through a not-yet-
// pivoted entry of L(:,j) can be rerouted through column k — so those
// entries are moved behind the prune boundary and every later DFS skips
// them. Each column is pruned at most once, at the smallest valid k.
func (f *Factors) pruneStep(k, pivRow int, ws *Workspace) {
	up0, up1 := f.U.Colptr[k], f.U.Colptr[k+1]
	for p := up0; p < up1-1; p++ {
		j := f.U.Rowidx[p]
		if ws.lpend[j] >= 0 {
			continue // already pruned
		}
		lp0, lp1 := f.L.Colptr[j]+1, f.L.Colptr[j+1]
		found := false
		for t := lp0; t < lp1; t++ {
			if f.L.Rowidx[t] == pivRow {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		// Partition: rows already pivoted (pivot position <= k) stay in the
		// DFS prefix; unpivoted rows (eventual pivot position > k) move to
		// the pruned tail. Order within a column is free until the final
		// sort, and the numeric updates traverse the whole column anyway.
		head, tail := lp0, lp1
		for head < tail {
			if f.Pinv[f.L.Rowidx[head]] >= 0 {
				head++
			} else {
				tail--
				f.L.Rowidx[head], f.L.Rowidx[tail] = f.L.Rowidx[tail], f.L.Rowidx[head]
				f.L.Values[head], f.L.Values[tail] = f.L.Values[tail], f.L.Values[head]
			}
		}
		ws.lpend[j] = head
		f.PruneEnd[j] = k
	}
}

// finishPruneEnd converts the recorded prune steps into storage positions
// over the final (pivot-ordered, sorted) L, for the finished-factor DFS of
// UpperBlockPattern: column j pruned at step k keeps exactly the entries with
// pivot row index <= k, a contiguous prefix of the sorted column.
func (f *Factors) finishPruneEnd() {
	for j := 0; j < f.N; j++ {
		p1 := f.L.Colptr[j+1]
		k := f.PruneEnd[j]
		if k < 0 {
			f.PruneEnd[j] = p1
			continue
		}
		lo, hi := f.L.Colptr[j]+1, p1
		for lo < hi { // first position with row index > k
			mid := (lo + hi) / 2
			if f.L.Rowidx[mid] <= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		f.PruneEnd[j] = lo
	}
}

// resetPatterns prepares f for emitting new factor patterns of dimension n:
// L and U are emptied for refilling and the row index of U, which described
// the old pattern, is dropped (its capacity kept for the rebuild).
func (f *Factors) resetPatterns(n, estNnz int) {
	f.N = n
	f.L = resetFactorCSC(f.L, n, estNnz)
	f.U = resetFactorCSC(f.U, n, estNnz)
	f.urowPtr = f.urowPtr[:0]
}

// upperRows builds the row index of U's strictly-upper pattern unless it is
// current: one counting pass and one filling pass over U. int32 suffices
// for any block whose U holds fewer than 2³¹ entries.
func (f *Factors) upperRows() {
	n := f.N
	if len(f.urowPtr) == n+1 {
		return
	}
	u := f.U
	ptr := slices.Grow(f.urowPtr[:0], n+1)[:n+1]
	clear(ptr)
	for k := 0; k < n; k++ {
		for _, j := range u.Rowidx[u.Colptr[k] : u.Colptr[k+1]-1] {
			ptr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	col := slices.Grow(f.urowCol[:0], int(ptr[n]))[:ptr[n]]
	// Fill with ptr[j] as row j's cursor (columns visited ascending, so each
	// row comes out sorted), then shift the cursors back into row starts.
	for k := 0; k < n; k++ {
		for _, j := range u.Rowidx[u.Colptr[k] : u.Colptr[k+1]-1] {
			col[ptr[j]] = int32(k)
			ptr[j]++
		}
	}
	copy(ptr[1:], ptr[:n])
	ptr[0] = 0
	f.urowPtr, f.urowCol = ptr, col
}

// markDependents flags rerun on every column whose U pattern holds a row in
// [k0, k1) — the columns whose elimination consumes those factor columns.
// The row index must be current (upperRows).
func (f *Factors) markDependents(k0, k1 int, rerun []bool) {
	for _, c := range f.urowCol[f.urowPtr[k0]:f.urowPtr[k1]] {
		rerun[c] = true
	}
}

// resetFactorCSC prepares an n×n factor for refilling, reusing the entry
// slices' capacity when possible.
func resetFactorCSC(c *sparse.CSC, n, estNnz int) *sparse.CSC {
	if c == nil || len(c.Colptr) != n+1 {
		return sparse.NewCSC(n, n, estNnz)
	}
	c.M, c.N = n, n
	c.Colptr[0] = 0
	c.Rowidx = c.Rowidx[:0]
	c.Values = c.Values[:0]
	return c
}

func clearX(x []float64, xi []int, top, n int, a *sparse.CSC, k int) {
	for t := top; t < n; t++ {
		x[xi[t]] = 0
	}
	for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
		x[a.Rowidx[p]] = 0
	}
}

// reach computes the pattern of L⁻¹ A(:,k) by depth-first search from the
// nonzeros of A(:,k) in the graph of the partially built L. Nodes are
// original row ids; a node i with Pinv[i] = j >= 0 has out-edges to the
// rows of the pruned prefix of L(:,j) (ws.lpend; the full column when
// unpruned). The topological order lands in ws.Xi[top:n].
func reach(l *sparse.CSC, pinv []int, a *sparse.CSC, k int, ws *Workspace) int {
	n := l.N
	ws.Tag++
	tag := ws.Tag
	top := n
	xi := ws.Xi
	for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
		start := a.Rowidx[p]
		if ws.Mark[start] == tag {
			continue
		}
		top = dfs(start, l, pinv, xi, top, ws.Pstack, ws.Mark, tag, ws.lpend)
	}
	return top
}

// dfs pushes the reverse-postorder of nodes reachable from start onto
// xi[..top], returning the new top. Iterative with an explicit stack held
// in xi[:n] (head section) and pstack. lpend bounds each column's child
// scan to its symmetric-pruning prefix (-1 = unpruned, full column);
// pruning preserves both reachability and topological validity, because
// every skipped edge has a rerouted path inside the pruned graph.
func dfs(start int, l *sparse.CSC, pinv []int, xi []int, top int, pstack, mark []int, tag int, lpend []int) int {
	head := 0
	xi[head] = start
	for head >= 0 {
		i := xi[head]
		j := pinv[i]
		if mark[i] != tag {
			mark[i] = tag
			if j < 0 {
				pstack[head] = 0 // no children
			} else {
				pstack[head] = l.Colptr[j] + 1 // skip unit diagonal
			}
		}
		done := true
		if j >= 0 {
			pend := l.Colptr[j+1]
			if lpend != nil && lpend[j] >= 0 {
				pend = lpend[j]
			}
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
		}
		if done {
			head--
			top--
			xi[top] = i
		}
	}
	return top
}

// Solve solves A x = b in place using the factors (b becomes x). It
// allocates the pivoted copy of b; the block solves of the engine keep their
// right-hand sides in pivot order and call LSolve and USolve directly.
func (f *Factors) Solve(b []float64) {
	y := make([]float64, f.N)
	for k, p := range f.P[:f.N] {
		y[k] = b[p]
	}
	f.LSolve(y)
	f.USolve(y)
	copy(b, y)
}

// The panel kernels. A panel holds PanelLanes right-hand sides
// row-interleaved, so a sweep loads each factor entry once and applies it
// to eight contiguous lanes. The diagonal-block sweeps LSolvePanel and
// USolvePanel are most of a batched solve and one of the package's two uses
// of the CPU's vector units, the third level of hardware parallelism the
// paper maps onto (the other is the supernode refresh, snode.go): on amd64
// with AVX2 they run assembly kernels (panel_amd64.s)
// that hold a PanelRow in two 4-lane registers and sweep up to panelChunk
// columns per call. Other architectures, CPUs without AVX2 and
// race-detector builds (the detector cannot see the memory accesses of
// assembly) run the Go loops lsolvePanelGo and usolvePanelGo, which also
// stay the kernels' test reference.
//
// Both paths give the same bits. The kernels multiply, then subtract
// (VMULPD, VSUBPD; VDIVPD for U's quotients) and never fuse the two into an
// FMA, which the Go compiler does not do on amd64 either, so every lane is
// rounded exactly as the Go loops' scalar MULSD, SUBSD and DIVSD, in the
// same order. The kernels check what the Go loops' bounds checks do (each
// column's entry range, U's pivot slot, every row against the panel), so a
// corrupt factor panics without a write outside y.

// PanelLanes is the width of a row-interleaved right-hand-side panel: row i
// of all eight vectors is one PanelRow, one 64-byte cache line.
const PanelLanes = 8

// PanelRow holds one row of every right-hand side of a panel.
type PanelRow [PanelLanes]float64

// IsZero reports whether every lane of the row is zero (the panel form of
// the serial sweeps' skip of a zero solution component).
func (r *PanelRow) IsZero() bool {
	return r[0] == 0 && r[1] == 0 && r[2] == 0 && r[3] == 0 &&
		r[4] == 0 && r[5] == 0 && r[6] == 0 && r[7] == 0
}

// PanelAxpy applies one sparse column to a panel: y[rows[q]] -= vals[q]·x
// on all eight lanes. The coupling sweeps — the fine-ND coupling blocks and
// the coarse off-block columns, whose pivot-order rows are int32 — are this
// loop: each (row, value) entry is decoded once and applied to eight
// contiguous lanes. Lanes of x that are zero are updated with ±0, which
// leaves finite values unchanged.
func PanelAxpy[I int | int32](y []PanelRow, rows []I, vals []float64, x *PanelRow) {
	vals = vals[:len(rows)]
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	for q, i := range rows {
		v, r := vals[q], &y[i]
		r[0] -= float64(v * x0)
		r[1] -= float64(v * x1)
		r[2] -= float64(v * x2)
		r[3] -= float64(v * x3)
		r[4] -= float64(v * x4)
		r[5] -= float64(v * x5)
		r[6] -= float64(v * x6)
		r[7] -= float64(v * x7)
	}
}

// PanelAxpyVia is PanelAxpy with every row reached through pos:
// y[pos[rows[q]]] -= vals[q]·x. A fine-ND lower coupling holds its
// ancestor's unpivoted rows and reaches the pivot-order ones through the
// ancestor's Pinv.
func PanelAxpyVia(y []PanelRow, pos, rows []int, vals []float64, x *PanelRow) {
	vals = vals[:len(rows)]
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	for q, i := range rows {
		v, r := vals[q], &y[pos[i]]
		r[0] -= float64(v * x0)
		r[1] -= float64(v * x1)
		r[2] -= float64(v * x2)
		r[3] -= float64(v * x3)
		r[4] -= float64(v * x4)
		r[5] -= float64(v * x5)
		r[6] -= float64(v * x6)
		r[7] -= float64(v * x7)
	}
}

// LSolvePanel is LSolve over a row-interleaved panel (y in pivot order):
// one pass over L, every entry applied to the eight lanes. Per lane the
// floating-point operation sequence is LSolve's, so for finite factors
// every component compares == with it. It runs the AVX2 kernel where there
// is one and the Go loop elsewhere, with the same bits (see the panel
// kernels above).
func (f *Factors) LSolvePanel(y []PanelRow) {
	if hasAVX2 {
		f.lsolvePanelVec(y)
		return
	}
	f.lsolvePanelGo(y)
}

// lsolvePanelGo is LSolvePanel's Go loop: the fallback, and the reference
// of the vector kernel.
func (f *Factors) lsolvePanelGo(y []PanelRow) {
	lp, li, lx := f.L.Colptr, f.L.Rowidx, f.L.Values
	for j := 0; j < f.N; j++ {
		p0, p1 := lp[j]+1, lp[j+1]
		x := &y[j]
		if p0 == p1 || x.IsZero() {
			continue
		}
		x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		vals := lx[p0:p1]
		for q, i := range li[p0:p1] {
			v, r := vals[q], &y[i]
			r[0] -= float64(v * x0)
			r[1] -= float64(v * x1)
			r[2] -= float64(v * x2)
			r[3] -= float64(v * x3)
			r[4] -= float64(v * x4)
			r[5] -= float64(v * x5)
			r[6] -= float64(v * x6)
			r[7] -= float64(v * x7)
		}
	}
}

// USolvePanel is USolve over a row-interleaved panel: one backward pass
// over U, the eight quotients of a column held while its entries are
// applied. Like LSolvePanel it runs the AVX2 kernel where there is one.
func (f *Factors) USolvePanel(y []PanelRow) {
	if hasAVX2 {
		f.usolvePanelVec(y)
		return
	}
	f.usolvePanelGo(y)
}

// usolvePanelGo is USolvePanel's Go loop: the fallback, and the reference
// of the vector kernel.
func (f *Factors) usolvePanelGo(y []PanelRow) {
	up, ui, ux := f.U.Colptr, f.U.Rowidx, f.U.Values
	for j := f.N - 1; j >= 0; j-- {
		p0, p1 := up[j], up[j+1]-1
		piv := ux[p1] // diagonal is the largest row index: last
		x := &y[j]
		x0, x1, x2, x3 := x[0]/piv, x[1]/piv, x[2]/piv, x[3]/piv
		x4, x5, x6, x7 := x[4]/piv, x[5]/piv, x[6]/piv, x[7]/piv
		*x = PanelRow{x0, x1, x2, x3, x4, x5, x6, x7}
		if p0 == p1 || x.IsZero() {
			continue
		}
		vals := ux[p0:p1]
		for q, i := range ui[p0:p1] {
			v, r := vals[q], &y[i]
			r[0] -= float64(v * x0)
			r[1] -= float64(v * x1)
			r[2] -= float64(v * x2)
			r[3] -= float64(v * x3)
			r[4] -= float64(v * x4)
			r[5] -= float64(v * x5)
			r[6] -= float64(v * x6)
			r[7] -= float64(v * x7)
		}
	}
}

// LSolve solves L y = y in place (forward substitution, unit diagonal,
// sorted columns with the diagonal first). As in the panel sweeps, the
// factor's slices are loaded once and every column is sliced once, so the
// inner loop pays one bounds check, on the scatter target: reads through
// f would be reloaded after every store to y. USolve, the transpose
// solves and the column refresh follow the same rule.
func (f *Factors) LSolve(y []float64) {
	lp, li, lx := f.L.Colptr, f.L.Rowidx, f.L.Values
	for j := range f.N {
		yj := y[j]
		if yj == 0 {
			continue
		}
		p0, p1 := lp[j]+1, lp[j+1]
		rows, vals := li[p0:p1], lx[p0:p1]
		vals = vals[:len(rows)]
		for q, i := range rows {
			y[i] -= float64(vals[q] * yj)
		}
	}
}

// USolve solves U x = y in place (backward substitution, pivot last).
func (f *Factors) USolve(y []float64) {
	up, ui, ux := f.U.Colptr, f.U.Rowidx, f.U.Values
	for j := f.N - 1; j >= 0; j-- {
		p0, p1 := up[j], up[j+1]-1
		yj := y[j] / ux[p1] // diagonal is the largest row index: last
		y[j] = yj
		if yj == 0 {
			continue
		}
		rows, vals := ui[p0:p1], ux[p0:p1]
		vals = vals[:len(rows)]
		for q, i := range rows {
			y[i] -= float64(vals[q] * yj)
		}
	}
}

// Refactor recomputes the numeric values of f for a new matrix a with the
// same nonzero pattern as the matrix originally factored, reusing the
// pivot sequence and factor patterns (no pivoting). This is the kernel of
// the Xyce transient-sequence experiment: one symbolic+pivoting
// factorization followed by many cheap refactorizations. Every layout
// refreshes here: column at a time when f has no supernode partition,
// otherwise supernode by supernode over Snodes — a singleton like a plain
// column, a wide one (a dense-built factor is the single supernode
// [0, N)) through its panel. A partition that does not tile 0..N is
// rejected with the error FactorInto raises.
func (f *Factors) Refactor(a *sparse.CSC, ws *Workspace) error {
	return f.refresh(a, ws, nil, 0, nil)
}

// RefactorSelective is Refactor restricted to the dependency closure of a
// dirty column set: column k is recomputed when its input column changed
// (colStamp[k] == epoch) or when an already-recomputed column appears in
// U(:,k)'s structural pattern — exactly the factor columns its elimination
// consumes — and skipped otherwise, its values provably identical to what
// a full Refactor would produce. A wide supernode reruns whole when any of
// its columns does: rerunning its clean columns is an over-refresh the
// refresh's determinism makes bitwise harmless. rerun must have length n;
// it is overwritten with the computed closure so the caller can inspect
// what reran. The closure runs forward: each recomputed column marks its
// row of U's pattern (the row index is built on the first selective
// refresh), so beyond one pass over the stamps the bookkeeping costs as
// much as the closure it finds — which is what makes localized change sets
// cheap even inside a large diagonal block whose fill-reducing ordering
// scattered them.
func (f *Factors) RefactorSelective(a *sparse.CSC, ws *Workspace, colStamp []uint64, epoch uint64, rerun []bool) error {
	return f.refresh(a, ws, colStamp, epoch, rerun)
}

// refresh is the one loop behind Refactor and RefactorSelective: a nil
// colStamp reruns every supernode (every column, without a partition),
// otherwise the selective closure rule decides.
func (f *Factors) refresh(a *sparse.CSC, ws *Workspace, colStamp []uint64, epoch uint64, rerun []bool) error {
	n := f.N
	if a.M != n || a.N != n {
		return fmt.Errorf("gp: refactor dimension mismatch")
	}
	xsup := f.Snodes
	if xsup != nil {
		if err := checkPartition(xsup, n); err != nil {
			return err
		}
	}
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.Grow(n)
	}
	if colStamp != nil {
		f.upperRows()
		clear(rerun[:n])
	}
	for s, k0 := 0, 0; k0 < n; s++ {
		k1 := k0 + 1
		if xsup != nil {
			k1 = xsup[s+1]
		}
		if colStamp == nil || snodeDirty(k0, k1, colStamp, epoch, rerun) {
			var err error
			if k1 == k0+1 {
				err = f.refactorColumn(a, ws.X, k0)
			} else {
				err = f.refreshSupernode(a, ws, k0, k1, f.snBlocked[s])
			}
			if err != nil {
				return err
			}
			if colStamp != nil {
				f.markDependents(k0, k1, rerun)
			}
		}
		k0 = k1
	}
	return nil
}

// refactorColumn refreshes factor column k from a's column k with the
// fixed pivot sequence: the refresh of a column and of a singleton
// supernode. x is the dense accumulator (clean on entry and on return,
// including the singular-pivot error path).
func (f *Factors) refactorColumn(a *sparse.CSC, x []float64, k int) error {
	scatterColumn(x, f.Pinv, a, k)
	lp, li, lx := f.L.Colptr, f.L.Rowidx, f.L.Values
	// Eliminate along U(:,k)'s pattern in ascending row order.
	up0, up1 := f.U.Colptr[k], f.U.Colptr[k+1]
	upat := f.U.Rowidx[up0:up1]
	urows, uvals := upat[:len(upat)-1], f.U.Values[up0:up1-1]
	uvals = uvals[:len(urows)]
	for p, j := range urows {
		xj := x[j]
		uvals[p] = xj
		if xj == 0 {
			continue
		}
		p0, p1 := lp[j]+1, lp[j+1]
		rows, vals := li[p0:p1], lx[p0:p1]
		vals = vals[:len(rows)]
		for t, i := range rows {
			x[i] -= float64(vals[t] * xj)
		}
	}
	l0, l1 := lp[k], lp[k+1]
	piv := x[k]
	if piv == 0 {
		// Clear workspace before reporting.
		for _, i := range upat {
			x[i] = 0
		}
		for _, i := range li[l0:l1] {
			x[i] = 0
		}
		return fmt.Errorf("gp: refactor column %d: %w", k, ErrSingular)
	}
	f.U.Values[up1-1] = piv
	rows, vals := li[l0+1:l1], lx[l0+1:l1]
	vals = vals[:len(rows)]
	for t, i := range rows {
		vals[t] = x[i] / piv
		x[i] = 0
	}
	for _, i := range upat {
		x[i] = 0
	}
	return nil
}

// scatterColumn scatters P·A(:,k) over pivot positions of the dense
// accumulator x: the first step of every column refresh.
func scatterColumn(x []float64, pinv []int, a *sparse.CSC, k int) {
	p0, p1 := a.Colptr[k], a.Colptr[k+1]
	rows, vals := a.Rowidx[p0:p1], a.Values[p0:p1]
	vals = vals[:len(rows)]
	for t, r := range rows {
		x[pinv[r]] = vals[t]
	}
}
