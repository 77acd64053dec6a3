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
	"sync"
	"weak"

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

// Workspace holds the reusable scratch arrays for factorizations of
// matrices up to a given dimension; reuse across columns and across
// factorizations avoids repeated allocation (critical inside parallel
// regions, as the paper's symbolic-phase discussion stresses). Its arrays
// are O(n): the O(|L|+|U|) buffers a fresh factor is emitted into are not
// part of it but borrowed per call (emitScratch), so a workspace kept with
// a factorization retains no factor-sized scratch.
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
	w := &Workspace{}
	w.Grow(n)
	return w
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
// time. estNnz is a size hint for the emission scratch (e.g. from a symbolic
// column-count pass); the returned factors hold exactly their entries
// whatever the hint. ws may be nil.
func Factor(a *sparse.CSC, estNnz int, opts Options, ws *Workspace) (*Factors, error) {
	f := &Factors{}
	if err := FactorInto(f, a, nil, estNnz, opts, ws); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto is Factor writing into caller-owned storage. The factor is
// emitted into scratch borrowed from a process-wide idle list (emitScratch)
// and copied out once, in final order, into f: f's L/U entry slices,
// permutation arrays and prune pointers are overwritten in place when large
// enough and replaced by exact-length ones otherwise, so a fresh f holds no
// slack and a pooled factorization that repeats on a fixed pattern reaches
// a steady state with no allocation at all. estNnz is the scratch's
// first-growth hint. On error f's contents are unspecified and must not be
// used for solves (retrying with a new matrix is fine — every call
// rebuilds from scratch).
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
	if err := checkPartition(xsup, a.N); err != nil {
		return err
	}
	// A panicking kernel leaves f pointing into the scratch, so it is
	// returned to the idle list only after a normal return.
	sc := getEmitScratch()
	err := f.factorVia(sc, a, xsup, estNnz, opts, ws)
	putEmitScratch(sc)
	return err
}

// factorVia is FactorInto's body over the emission scratch sc: the
// elimination emits L and U into sc, and copyOut writes them into f's
// storage once every pivot is known. f never keeps a reference into sc.
func (f *Factors) factorVia(sc *emitScratch, a *sparse.CSC, xsup []int, estNnz int, opts Options, ws *Workspace) error {
	n := a.N
	if ws == nil {
		ws = &Workspace{}
	}
	ws.Grow(n)
	l, u := f.L, f.U
	f.N, f.urowPtr, f.Flops = n, f.urowPtr[:0], 0
	f.L, f.U = sc.reset(n, max(estNnz, a.Nnz()+n))
	f.P, f.Pinv = sparse.GrowInts(f.P, n), sparse.GrowInts(f.Pinv, n)
	for j := 0; j < n; j++ {
		f.Pinv[j], ws.lpend[j] = -1, -1 // a reused workspace may hold stale bounds
	}
	// Pruning pays for its bookkeeping only once columns are long enough
	// for the DFS to matter; tiny blocks (the fine-BTF majority) skip it.
	prune := !opts.NoPrune && n >= pruneMinDim
	if prune {
		// During the factorization PruneEnd[j] records the *step* at which
		// column j was pruned (-1 = never); it is converted to a storage
		// position once L is in final order.
		f.PruneEnd = sparse.GrowInts(f.PruneEnd, n)
		for j := range f.PruneEnd {
			f.PruneEnd[j] = -1
		}
	} else {
		f.PruneEnd = nil
	}
	if err := f.eliminate(a, xsup, opts, ws, prune); err != nil {
		f.L, f.U = l, u
		return err
	}
	f.L, f.U = sc.copyOut(f.Pinv, l, u)
	if prune {
		f.finishPruneEnd()
	}
	if xsup == nil {
		f.Snodes = nil
		return nil
	}
	f.Snodes = append(f.Snodes[:0], xsup...)
	f.markBlocked(ws)
	return nil
}

// eliminate runs the left-looking factorization over the partition xsup
// (nil: column at a time), emitting into f.L and f.U.
func (f *Factors) eliminate(a *sparse.CSC, xsup []int, opts Options, ws *Workspace, prune bool) error {
	tol := opts.tol()
	for s, k0, poll := 0, 0, 0; k0 < f.N; s++ {
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
	return nil
}

// emitScratch is where FactorInto builds a fresh factor: L and U as they
// are emitted — U already in pivot order, L's rows original ids in reach
// order — and the buffers of copyOut's counting sort. Its slices grow to
// the largest factor they have held. A caller holds one only for the
// duration of a FactorInto (getEmitScratch, putEmitScratch), so no Factors,
// Workspace or anything kept alive through them retains it.
type emitScratch struct {
	l, u sparse.CSC
	ptr  []int    // copyOut: the row pointers of its counting sort
	ent  []lEntry // copyOut: L's entries bucketed by pivot row
}

// lEntry is one L entry in a row bucket of copyOut.
type lEntry struct {
	col int
	val float64
}

// emitFree lists the idle emission scratch, shared by every goroutine and
// reused across blocks and factorizations. It holds weak pointers, so it
// decides which scratch is idle but not how long one lives: emitKeep
// holds the idle scratch strongly, as a sync.Pool holds its items, so an
// unused scratch outlives one collection but not two. One that emitKeep
// drops early (a race build's pool drops a quarter of its Puts) is still
// found here until the next collection, so a steady-state FactorInto
// allocates nothing in any build.
var (
	emitFree struct {
		sync.Mutex
		idle []weak.Pointer[emitScratch]
	}
	emitKeep sync.Pool
)

// getEmitScratch takes the most recently returned idle scratch that is
// still alive, or a new one.
func getEmitScratch() *emitScratch {
	emitKeep.Get() // one idle scratch fewer to keep alive
	emitFree.Lock()
	defer emitFree.Unlock()
	for n := len(emitFree.idle); n > 0; n-- {
		sc := emitFree.idle[n-1].Value()
		emitFree.idle = emitFree.idle[:n-1]
		if sc != nil {
			return sc
		}
	}
	return new(emitScratch)
}

// putEmitScratch returns sc to the idle list.
func putEmitScratch(sc *emitScratch) {
	emitFree.Lock()
	emitFree.idle = append(emitFree.idle, weak.Make(sc))
	emitFree.Unlock()
	emitKeep.Put(sc)
}

// reset prepares sc's L and U for emitting n×n factors, each with room for
// the larger of hint and what it has held before it must grow.
func (sc *emitScratch) reset(n, hint int) (*sparse.CSC, *sparse.CSC) {
	for _, c := range []*sparse.CSC{&sc.l, &sc.u} {
		*c = sparse.CSC{M: n, N: n, Colptr: fit(c.Colptr, n+1), Rowidx: slices.Grow(c.Rowidx[:0], hint), Values: slices.Grow(c.Values[:0], hint)}
		c.Colptr[0] = 0
	}
	return &sc.l, &sc.u
}

// copyOut writes the emitted factor, every pivot known, into the
// destinations l and u (reused when large enough, exact-length otherwise;
// either may be nil) in final order, and returns them. U is emitted in
// ascending pivot order and copies as it is. L's rows are remapped through
// pinv to pivot positions and counting-sorted: the entries are bucketed by
// row, columns ascending, and the buckets written back row by row, so every
// column comes out ascending in O(|L| + n), each value with its bits.
func (sc *emitScratch) copyOut(pinv []int, l, u *sparse.CSC) (*sparse.CSC, *sparse.CSC) {
	n := sc.l.N
	u = fitCSC(u, n, sc.u.Nnz())
	copy(u.Colptr, sc.u.Colptr)
	copy(u.Rowidx, sc.u.Rowidx)
	copy(u.Values, sc.u.Values)

	lp, li, lx := sc.l.Colptr, sc.l.Rowidx, sc.l.Values
	l = fitCSC(l, n, len(li))
	copy(l.Colptr, lp)
	ptr := fit(sc.ptr, n+1)
	clear(ptr)
	for p, i := range li {
		r := pinv[i]
		li[p] = r
		ptr[r+1]++
	}
	for r := 0; r < n; r++ {
		ptr[r+1] += ptr[r]
	}
	ent := fit(sc.ent, len(li))
	lx = lx[:len(li)]
	for j := 0; j < n; j++ {
		for p := lp[j]; p < lp[j+1]; p++ {
			r := li[p]
			ent[ptr[r]] = lEntry{j, lx[p]}
			ptr[r]++
		}
	}
	// ptr[r] now ends row r's bucket; the scratch column starts, no longer
	// needed, become the write cursors.
	rows, vals := l.Rowidx, l.Values[:len(l.Rowidx)]
	for r, q0 := 0, 0; r < n; r++ {
		for _, e := range ent[q0:ptr[r]] {
			q := lp[e.col]
			rows[q], vals[q] = r, e.val
			lp[e.col] = q + 1
		}
		q0 = ptr[r]
	}
	sc.ptr, sc.ent = ptr, ent
	return l, u
}

// fitCSC returns c (a new CSC when nil) shaped n×n with room for exactly
// nnz entries: its slices are resliced when large enough, replaced by
// exact-length ones otherwise.
func fitCSC(c *sparse.CSC, n, nnz int) *sparse.CSC {
	if c == nil {
		c = &sparse.CSC{}
	}
	*c = sparse.CSC{M: n, N: n, Colptr: fit(c.Colptr, n+1), Rowidx: fit(c.Rowidx, nnz), Values: fit(c.Values, nnz)}
	return c
}

// fit returns s resized to n elements, its backing array reused when large
// enough and an exact-length one made otherwise (contents unspecified).
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
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
	pivRow, pivVal, maxAbs := -1, 0.0, 0.0
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
		pivRow = -1
		if f.Pinv[k] == -1 && math.Abs(x[k]) > 0 {
			pivRow, pivVal = k, x[k]
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
		if !slices.Contains(f.L.Rowidx[lp0:lp1], pivRow) {
			continue
		}
		// Partition: rows already pivoted (pivot position <= k) stay in the
		// DFS prefix; unpivoted rows (eventual pivot position > k) move to
		// the pruned tail. Order within a column is free until the
		// copy-out, and the numeric updates traverse the whole column anyway.
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
		p0, p1 := f.L.Colptr[j]+1, f.L.Colptr[j+1]
		if k := f.PruneEnd[j]; k < 0 {
			f.PruneEnd[j] = p1
		} else { // the first position with row index > k: rows are unique
			lo, _ := slices.BinarySearch(f.L.Rowidx[p0:p1], k+1)
			f.PruneEnd[j] = p0 + lo
		}
	}
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
	if err := checkPartition(xsup, n); err != nil {
		return err
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.Grow(n)
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
