// Package matching implements bipartite matchings used to permute sparse
// matrices to a zero-free diagonal:
//
//   - MaxCardinalityPermWith: MC21-style augmenting-path maximum
//     cardinality matching on the pattern of A.
//   - Bottleneck: maximum weight-cardinality matching (MWCM) in the
//     bottleneck sense used by Basker — among all perfect matchings, it
//     maximizes the smallest |a_ij| placed on the diagonal. This mirrors the
//     MC64 "bottleneck" option the paper says its MWCM resembles. The
//     threshold is found by a selection search: MC21 probes at medians of
//     the entry magnitudes that lie between a feasible lower bound (the
//     pattern matching's smallest diagonal) and an upper bound no perfect
//     matching can beat (the smallest column or row maximum). Nothing is
//     sorted, and the result is the one a binary search over every sorted
//     magnitude would give.
package matching

import (
	"errors"
	"math"

	"repro/internal/sparse"
)

// ErrStructurallySingular is returned when no perfect matching exists, i.e.
// the matrix cannot be permuted to a zero-free diagonal.
var ErrStructurallySingular = errors.New("matching: matrix is structurally singular")

// Workspace holds the reusable scratch of the matching searches: MC21's
// matching arrays and DFS stacks, the best matching found so far, and mags,
// which holds the row maxima and then the candidate magnitudes the
// bottleneck search selects among. The search runs O(log c) feasibility
// probes (c magnitudes between its bounds), all drawing from one Workspace;
// carried across Analyze calls, which run one matching per BTF front end
// plus one per fine-ND block, it keeps the serial symbolic phase free of
// scratch allocation.
type Workspace struct {
	rowOf, colOf, visited []int
	best                  []int
	pathRow               []int
	stack                 []augFrame
	mags                  []float64
}

// augFrame is one DFS frame of the augmenting-path search.
type augFrame struct{ col, ptr int }

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// maxCardinalityFiltered matches using only entries with |value| >= thresh.
// thresh == 0 admits every stored entry (pattern matching). The returned
// slice aliases ws.rowOf and is valid only until the workspace is reused.
func maxCardinalityFiltered(a *sparse.CSC, thresh float64, ws *Workspace) ([]int, int) {
	n := a.N
	ws.rowOf = sparse.GrowInts(ws.rowOf, n)   // column -> matched row
	ws.colOf = sparse.GrowInts(ws.colOf, a.M) // row -> matched column
	rowOf, colOf := ws.rowOf, ws.colOf
	for j := range rowOf {
		rowOf[j] = -1
	}
	for i := range colOf {
		colOf[i] = -1
	}
	// Cheap assignment pass: match each column to the first free row.
	size := 0
	for j := 0; j < n; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if math.Abs(a.Values[p]) < thresh {
				continue
			}
			i := a.Rowidx[p]
			if colOf[i] == -1 {
				colOf[i] = j
				rowOf[j] = i
				size++
				break
			}
		}
	}
	// Augmenting path search (iterative DFS, one pass per unmatched column).
	// visited[i] == j0+1 marks row i as seen while augmenting column j0; the
	// array must start clean, since stale marks from a previous search could
	// collide with the same j0.
	ws.visited = sparse.GrowInts(ws.visited, a.M)
	visited := ws.visited
	for i := range visited {
		visited[i] = 0
	}
	// Explicit DFS stack: pairs of (column, next entry pointer). pathRow[d]
	// records the row chosen at depth d so the augmentation can be applied
	// once a free row is found.
	stack := ws.stack[:0]
	pathRow := ws.pathRow[:0]
	for j0 := 0; j0 < n; j0++ {
		if rowOf[j0] != -1 {
			continue
		}
		stack = stack[:0]
		pathRow = pathRow[:0]
		stack = append(stack, augFrame{j0, a.Colptr[j0]})
		found := false
		for len(stack) > 0 && !found {
			top := &stack[len(stack)-1]
			j := top.col
			advanced := false
			for p := top.ptr; p < a.Colptr[j+1]; p++ {
				if math.Abs(a.Values[p]) < thresh {
					continue
				}
				i := a.Rowidx[p]
				if visited[i] == j0+1 {
					continue
				}
				visited[i] = j0 + 1
				top.ptr = p + 1
				if colOf[i] == -1 {
					// Free row: augment along the stored path.
					pathRow = append(pathRow, i)
					for d := len(stack) - 1; d >= 0; d-- {
						cj := stack[d].col
						ri := pathRow[d]
						rowOf[cj] = ri
						colOf[ri] = cj
					}
					size++
					found = true
				} else {
					pathRow = append(pathRow, i)
					stack = append(stack, augFrame{colOf[i], a.Colptr[colOf[i]]})
				}
				advanced = true
				break
			}
			if !advanced {
				stack = stack[:len(stack)-1]
				if len(pathRow) > 0 {
					pathRow = pathRow[:len(pathRow)-1]
				}
			}
		}
	}
	ws.stack, ws.pathRow = stack, pathRow // keep grown capacity
	return rowOf, size
}

// Result describes a matching-derived row permutation.
type Result struct {
	// RowPerm is new-to-old: B = A(RowPerm, :) has B(j,j) != 0 for all j.
	RowPerm []int
	// Bottleneck is the smallest |a_ij| on the matched diagonal (only set
	// by Bottleneck; MaxCardinalityPermWith leaves it 0).
	Bottleneck float64
}

// MaxCardinalityPermWith returns a row permutation placing nonzeros on the
// diagonal, or ErrStructurallySingular if none exists, drawing scratch from
// ws (nil allocates a private workspace).
func MaxCardinalityPermWith(a *sparse.CSC, ws *Workspace) (*Result, error) {
	if a.M != a.N {
		return nil, errors.New("matching: matrix must be square")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	rowOf, size := maxCardinalityFiltered(a, 0, ws)
	if size != a.N {
		return nil, ErrStructurallySingular
	}
	return &Result{RowPerm: append([]int(nil), rowOf...)}, nil
}

// Bottleneck computes a maximum weight-cardinality matching that maximizes
// the minimum |a_ij| on the diagonal. The answer t* is the largest entry
// magnitude at which the filtered MC21 still finds a perfect matching;
// feasibility only falls as the threshold rises, so t* is found by a
// selection search over the magnitudes between two provable bounds (see
// BottleneckWith). Complexity O(nnz) for the bounds and the selections plus
// O(log c) MC21 probes, where c ≤ nnz counts the magnitudes between the
// bounds.
func Bottleneck(a *sparse.CSC) (*Result, error) {
	return BottleneckWith(a, nil)
}

// BottleneckWith is Bottleneck drawing all scratch — including every
// feasibility probe's — from ws (nil allocates a private workspace). Only
// the returned Result and its permutation are freshly allocated.
//
// The search keeps t* inside [lo, hi]:
//
//   - lo, the smallest magnitude on the threshold-0 matching (the
//     structural-singularity check's matching), is feasible: that matching
//     survives the filter at lo.
//   - hi, the minimum over columns and rows of their largest magnitude, is
//     an upper bound: above it some column or row has no entry left.
//
// NaN entries are never filtered (|NaN| < t is false), so a NaN counts as
// +Inf in hi and is skipped in lo. Each step selects the median of the
// magnitudes still strictly between lo and hi, probes it, and keeps the
// half the probe leaves open. The result is
// maxCardinalityFiltered(a, t*, ws) — the matching a search over every
// magnitude would return — and t*; an all-NaN matrix reports t* = NaN.
func BottleneckWith(a *sparse.CSC, ws *Workspace) (*Result, error) {
	if a.M != a.N {
		return nil, errors.New("matching: matrix must be square")
	}
	n := a.N
	if n == 0 {
		return &Result{RowPerm: []int{}}, nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	// Feasibility at threshold 0 == plain maximum matching.
	rowOf, size := maxCardinalityFiltered(a, 0, ws)
	if size != n {
		return nil, ErrStructurallySingular
	}
	// One pass for both bounds. lo is the largest magnitude known feasible
	// (-1 while none is); it starts at the smallest non-NaN magnitude on
	// the matching just found. hi takes the column maxima directly and the
	// row maxima through ws.mags, with NaN counted as +Inf.
	if cap(ws.mags) < n {
		ws.mags = make([]float64, n)
	}
	rowMax := ws.mags[:n]
	clear(rowMax)
	lo, hi := -1.0, math.Inf(1)
	for j, matched := range rowOf {
		colMax := 0.0
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i, m := a.Rowidx[p], math.Abs(a.Values[p])
			if math.IsNaN(m) {
				m = math.Inf(1)
			} else if i == matched && (lo < 0 || m < lo) {
				lo = m
			}
			colMax = max(colMax, m)
			rowMax[i] = max(rowMax[i], m)
		}
		hi = min(hi, colMax)
	}
	for _, m := range rowMax {
		hi = min(hi, m)
	}

	// Candidates: the magnitudes in (lo, hi]; NaN fails both tests.
	cand := rowMax[:0]
	for _, v := range a.Values[:a.Nnz()] {
		if m := math.Abs(v); m > lo && m <= hi {
			cand = append(cand, m)
		}
	}
	ws.mags = cand
	probed := false // ws.best holds the matching at lo
	for len(cand) > 0 {
		k := len(cand) / 2
		selectKth(cand, k)
		t := cand[k]
		r, s := maxCardinalityFiltered(a, t, ws)
		if s == n {
			ws.best = append(ws.best[:0], r...)
			lo, probed = t, true
			cand = keepAbove(cand[k+1:], t)
		} else {
			cand = keepBelow(cand[:k], t)
		}
	}
	if lo < 0 { // every value is NaN, and so is the largest feasible threshold
		lo = math.NaN()
	}
	best := ws.best
	if !probed {
		best, _ = maxCardinalityFiltered(a, lo, ws)
	}
	return &Result{RowPerm: append([]int(nil), best...), Bottleneck: lo}, nil
}

// selectKth reorders x so that x[k] is the value a sort would put there,
// with x[:k] <= x[k] <= x[k+1:] (quickselect, median-of-three pivots,
// Hoare partition). x must hold no NaN.
func selectKth(x []float64, k int) {
	l, r := 0, len(x)-1
	for r > l {
		mid := l + (r-l)/2
		if x[mid] < x[l] {
			x[mid], x[l] = x[l], x[mid]
		}
		if x[r] < x[l] {
			x[r], x[l] = x[l], x[r]
		}
		if x[r] < x[mid] {
			x[r], x[mid] = x[mid], x[r]
		}
		pivot := x[mid]
		i, j := l, r
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for pivot < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// Now x[l:j+1] <= pivot <= x[i:r+1], and x[j+1:i] == pivot.
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return
		}
	}
}

// keepAbove compacts the entries of x greater than t to its front.
func keepAbove(x []float64, t float64) []float64 {
	out := x[:0]
	for _, v := range x {
		if v > t {
			out = append(out, v)
		}
	}
	return out
}

// keepBelow compacts the entries of x less than t to its front.
func keepBelow(x []float64, t float64) []float64 {
	out := x[:0]
	for _, v := range x {
		if v < t {
			out = append(out, v)
		}
	}
	return out
}
