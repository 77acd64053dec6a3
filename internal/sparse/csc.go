// Package sparse provides the sparse-matrix substrate used by every solver
// in this repository: compressed sparse column (CSC) storage, coordinate
// (COO) assembly, permutation utilities, sparse matrix-vector products,
// transposition, and contiguous 2D block extraction.
//
// Conventions:
//   - A CSC matrix stores column j's entries in
//     Rowidx[Colptr[j]:Colptr[j+1]] with matching Values.
//   - Row indices within a column are kept sorted ascending by all
//     constructors in this package; algorithms that produce unsorted columns
//     (e.g. numeric factorization) document it.
//   - A permutation p is "new-to-old": p[k] is the old index that moves to
//     new position k, so (PA)(k,:) = A(p[k],:).
package sparse

import (
	"context"
	"errors"
	"slices"
)

// CSC is a sparse matrix in compressed sparse column format.
type CSC struct {
	M, N   int   // number of rows, columns
	Colptr []int // length N+1; Colptr[N] == nnz
	Rowidx []int // length nnz; row index of each entry
	Values []float64
}

// NewCSC returns an all-zero m×n matrix with capacity for nnz entries.
func NewCSC(m, n, nnz int) *CSC {
	return &CSC{
		M:      m,
		N:      n,
		Colptr: make([]int, n+1),
		Rowidx: make([]int, 0, nnz),
		Values: make([]float64, 0, nnz),
	}
}

// Nnz reports the number of stored entries.
func (a *CSC) Nnz() int { return a.Colptr[a.N] }

// SharePattern returns a matrix aliasing a's structure (Colptr and Rowidx
// are shared, read-only by convention) with its own zero-filled value
// buffer. This is how one symbolic analysis hands the same sparsity pattern
// to many concurrent factorizations without duplicating the index arrays.
func (a *CSC) SharePattern() *CSC {
	return &CSC{
		M:      a.M,
		N:      a.N,
		Colptr: a.Colptr,
		Rowidx: a.Rowidx,
		Values: make([]float64, a.Nnz()),
	}
}

// ResetShape reinitializes a to an all-zero m×n matrix, reusing the
// allocated capacity of its buffers. Used to recycle factor-block storage
// across repeated fresh factorizations.
func (a *CSC) ResetShape(m, n int) {
	a.M, a.N = m, n
	if cap(a.Colptr) >= n+1 {
		a.Colptr = a.Colptr[:n+1]
		for i := range a.Colptr {
			a.Colptr[i] = 0
		}
	} else {
		a.Colptr = make([]int, n+1)
	}
	a.Rowidx = a.Rowidx[:0]
	a.Values = a.Values[:0]
}

// FillDense fills dst with the structural fully dense m×n block whose
// values are the column-major data (leading dimension m, length m·n):
// every column stores rows 0..m-1, exact zeros included. In the recycled
// steady state — dst is already m×n holding m·n entries, which for the
// sorted unique column patterns all emitters maintain forces exactly the
// full pattern — only the values are copied; otherwise the pattern is
// rebuilt into dst's storage. dst may be nil. A nil data sets the shape
// only: the values are then unspecified, left for a kernel that writes
// every column in full. This is the single emission point of the dense
// kernel layer, so the fully-dense-pattern invariant lives in one place.
func FillDense(dst *CSC, m, n int, data []float64) *CSC {
	if dst == nil {
		dst = NewCSC(m, n, m*n)
	} else if dst.M == m && dst.N == n && len(dst.Rowidx) == m*n && len(dst.Values) == m*n {
		copy(dst.Values, data)
		return dst
	}
	dst.ResetShape(m, n)
	for c := 0; c < n; c++ {
		for i := 0; i < m; i++ {
			dst.Rowidx = append(dst.Rowidx, i)
		}
		dst.Colptr[c+1] = (c + 1) * m
	}
	dst.Values = slices.Grow(dst.Values, m*n)[:m*n]
	copy(dst.Values, data)
	return dst
}

// Compact clips the entry slices to their exact length, releasing any extra
// capacity retained from growth hints (a copy is required — Go cannot
// shrink an allocation in place).
func (a *CSC) Compact() {
	if cap(a.Rowidx) > len(a.Rowidx) {
		ri := make([]int, len(a.Rowidx))
		copy(ri, a.Rowidx)
		a.Rowidx = ri
	}
	if cap(a.Values) > len(a.Values) {
		v := make([]float64, len(a.Values))
		copy(v, a.Values)
		a.Values = v
	}
}

// Clone returns a deep copy of a.
func (a *CSC) Clone() *CSC {
	b := &CSC{
		M:      a.M,
		N:      a.N,
		Colptr: make([]int, len(a.Colptr)),
		Rowidx: make([]int, len(a.Rowidx)),
		Values: make([]float64, len(a.Values)),
	}
	copy(b.Colptr, a.Colptr)
	copy(b.Rowidx, a.Rowidx)
	copy(b.Values, a.Values)
	return b
}

// At returns A(i,j) by binary search within column j. It is intended for
// tests and small examples, not inner loops.
func (a *CSC) At(i, j int) float64 {
	lo, hi := a.Colptr[j], a.Colptr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.Rowidx[mid] == i:
			return a.Values[mid]
		case a.Rowidx[mid] < i:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Transpose returns Aᵀ in CSC form (equivalently, A reinterpreted as CSR).
// Columns of the result are sorted.
func (a *CSC) Transpose() *CSC {
	t := &CSC{
		M:      a.N,
		N:      a.M,
		Colptr: make([]int, a.M+1),
		Rowidx: make([]int, a.Nnz()),
		Values: make([]float64, a.Nnz()),
	}
	// Count entries per row of A (column of Aᵀ).
	for _, i := range a.Rowidx[:a.Nnz()] {
		t.Colptr[i+1]++
	}
	for i := 0; i < a.M; i++ {
		t.Colptr[i+1] += t.Colptr[i]
	}
	next := make([]int, a.M)
	copy(next, t.Colptr[:a.M])
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			q := next[i]
			next[i]++
			t.Rowidx[q] = j
			t.Values[q] = a.Values[p]
		}
	}
	return t
}

// SortColumns sorts the row indices (and matching values) within every
// column in place. It runs a double transpose, which is O(nnz) and stable.
func (a *CSC) SortColumns() {
	s := a.Transpose().Transpose()
	copy(a.Colptr, s.Colptr)
	copy(a.Rowidx, s.Rowidx)
	copy(a.Values, s.Values)
}

// Permute returns B = A(p, q): B[i][j] = A[p[i]][q[j]]. Either permutation
// may be nil, meaning identity. Columns of the result are sorted.
func (a *CSC) Permute(p, q []int) *CSC {
	pinv := InversePerm(p)
	b := &CSC{
		M:      a.M,
		N:      a.N,
		Colptr: make([]int, a.N+1),
		Rowidx: make([]int, a.Nnz()),
		Values: make([]float64, a.Nnz()),
	}
	nz := 0
	for k := 0; k < a.N; k++ {
		j := k
		if q != nil {
			j = q[k]
		}
		b.Colptr[k] = nz
		for t := a.Colptr[j]; t < a.Colptr[j+1]; t++ {
			i := a.Rowidx[t]
			if pinv != nil {
				i = pinv[i]
			}
			b.Rowidx[nz] = i
			b.Values[nz] = a.Values[t]
			nz++
		}
	}
	b.Colptr[a.N] = nz
	b.SortColumns()
	return b
}

// PermuteWithMap is Permute plus a cached entry map: it returns
// B = A(p, q) together with src, where entry t of B came from entry src[t]
// of A. After the one-time structural cost, same-pattern matrices can be
// re-permuted with PermuteInto as a pure value gather — the refactorization
// pipeline's replacement for calling Permute on every transient step. A
// pattern-only a (nil Values) yields a pattern-only B.
func (a *CSC) PermuteWithMap(p, q []int) (*CSC, []int) {
	pinv := InversePerm(p)
	nnz := a.Nnz()
	b := &CSC{
		M:      a.M,
		N:      a.N,
		Colptr: make([]int, a.N+1),
		Rowidx: make([]int, nnz),
	}
	src := make([]int, nnz)
	nz := 0
	for k := 0; k < a.N; k++ {
		j := k
		if q != nil {
			j = q[k]
		}
		b.Colptr[k] = nz
		for t := a.Colptr[j]; t < a.Colptr[j+1]; t++ {
			i := a.Rowidx[t]
			if pinv != nil {
				i = pinv[i]
			}
			b.Rowidx[nz] = i
			src[nz] = t
			nz++
		}
	}
	b.Colptr[a.N] = nz
	// Sort each column by row index, carrying the source positions (the
	// double-transpose trick of SortColumns would lose the map).
	for k := 0; k < a.N; k++ {
		sortColumnWithMap(b.Rowidx[b.Colptr[k]:b.Colptr[k+1]], src[b.Colptr[k]:b.Colptr[k+1]])
	}
	if a.Values != nil {
		b.Values = make([]float64, nnz)
		gatherValues(b.Values, a.Values, src)
	}
	return b, src
}

func sortColumnWithMap(rows, src []int) {
	for i := 1; i < len(rows); i++ {
		r, s := rows[i], src[i]
		j := i - 1
		for j >= 0 && rows[j] > r {
			rows[j+1], src[j+1] = rows[j], src[j]
			j--
		}
		rows[j+1], src[j+1] = r, s
	}
}

// PermuteInto refreshes dst's values from src through an entry map built by
// PermuteWithMap: dst.Values[t] = src.Values[entryMap[t]]. The sparsity
// pattern of src must be identical to the matrix the map was built from;
// the call performs no allocation.
func PermuteInto(dst, src *CSC, entryMap []int) {
	gatherValues(dst.Values[:len(entryMap)], src.Values, entryMap)
}

// ExtractBlockWithMap is ExtractBlock plus a cached entry map: entry t of
// the returned block came from entry src[t] of a, so same-pattern refreshes
// can run through ExtractBlockInto without re-walking the source columns.
// The block is counted first and allocated at its exact size; a
// pattern-only a (nil Values) yields a pattern-only block.
func (a *CSC) ExtractBlockWithMap(r0, r1, c0, c1 int) (*CSC, []int) {
	b := &CSC{M: r1 - r0, N: c1 - c0, Colptr: make([]int, c1-c0+1)}
	nnz := 0
	for j := c0; j < c1; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if i := a.Rowidx[p]; i >= r0 && i < r1 {
				nnz++
			}
		}
		b.Colptr[j-c0+1] = nnz
	}
	b.Rowidx = make([]int, nnz)
	src := make([]int, nnz)
	t := 0
	for j := c0; j < c1; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if i := a.Rowidx[p]; i >= r0 && i < r1 {
				b.Rowidx[t], src[t] = i-r0, p
				t++
			}
		}
	}
	if a.Values != nil {
		b.Values = make([]float64, nnz)
		gatherValues(b.Values, a.Values, src)
	}
	return b, src
}

// ExtractBlockInto refreshes dst's values from src through an entry map
// built by ExtractBlockWithMap. Zero allocation; the pattern of src must
// match the matrix the map was built from.
func ExtractBlockInto(dst, src *CSC, entryMap []int) {
	gatherValues(dst.Values[:len(entryMap)], src.Values, entryMap)
}

// GatherRange refreshes only the entry range [p0, p1) of dst from src
// through an entry map built by PermuteWithMap or ExtractBlockWithMap — the
// partial-scatter primitive of the incremental refactorization pipeline: a
// change set that touches a few columns gathers exactly those columns'
// entries instead of the whole matrix. Zero allocation.
func GatherRange(dst, src *CSC, entryMap []int, p0, p1 int) {
	gatherValues(dst.Values[p0:p1], src.Values, entryMap[p0:p1])
}

// gatherValues sets dst[t] = src[entryMap[t]]. dst is cut to the map's
// length first, so the loop pays one bounds check per entry, on the source.
func gatherValues(dst, src []float64, entryMap []int) {
	dst = dst[:len(entryMap)]
	for t, s := range entryMap {
		dst[t] = src[s]
	}
}

// SamePattern reports whether a's sparsity structure equals the recorded
// (colptr, rowidx) pattern — the one verification every pattern-keyed fast
// path (factor plans, refactor pipelines, pools) performs before trusting
// its cached entry maps.
func SamePattern(colptr, rowidx []int, a *CSC) bool {
	if len(colptr) != len(a.Colptr) || len(rowidx) != len(a.Rowidx) {
		return false
	}
	for i, c := range colptr {
		if a.Colptr[i] != c {
			return false
		}
	}
	for i, r := range rowidx {
		if a.Rowidx[i] != r {
			return false
		}
	}
	return true
}

// GrowInts returns s resized to exactly n elements, reusing its backing
// array when large enough (contents unspecified) — the scratch-growth
// helper shared by the pooled-workspace consumers across packages.
func GrowInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// GrowBools is GrowInts for bool scratch.
func GrowBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// InversePerm returns pinv with pinv[p[k]] = k, or nil for nil input.
func InversePerm(p []int) []int {
	if p == nil {
		return nil
	}
	pinv := make([]int, len(p))
	for k, v := range p {
		pinv[v] = k
	}
	return pinv
}

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsPerm reports whether p is a permutation of 0..len(p)-1.
func IsPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// MulVec computes y = A·x. y must have length M, x length N.
func (a *CSC) MulVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			y[a.Rowidx[p]] += float64(a.Values[p] * xj)
		}
	}
}

// ExtractBlock returns the dense index range A[r0:r1, c0:c1] as a new CSC
// matrix with local indices (row i of the block is global row r0+i). The
// source columns must be sorted, which all constructors guarantee.
func (a *CSC) ExtractBlock(r0, r1, c0, c1 int) *CSC {
	b := NewCSC(r1-r0, c1-c0, 0)
	for j := c0; j < c1; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			if i >= r0 && i < r1 {
				b.Rowidx = append(b.Rowidx, i-r0)
				b.Values = append(b.Values, a.Values[p])
			}
		}
		b.Colptr[j-c0+1] = len(b.Rowidx)
	}
	return b
}

// MaxAbs returns the largest absolute value stored in the matrix.
func (a *CSC) MaxAbs() float64 {
	m := 0.0
	for _, v := range a.Values[:a.Nnz()] {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ErrNotFinite reports a NaN or Inf among the stored values.
var ErrNotFinite = errors.New("sparse: matrix has non-finite values")

// CheckFinite screens the stored values for NaN/Inf. One linear pass over
// Values; allocation-free.
func (a *CSC) CheckFinite() error {
	for _, v := range a.Values[:a.Nnz()] {
		// v != v catches NaN; the subtraction catches ±Inf without math.IsInf.
		if v != v || v-v != 0 {
			return ErrNotFinite
		}
	}
	return nil
}

// Check validates structural invariants: non-negative dimensions, a
// monotone Colptr from 0 to len(Rowidx) = len(Values), in-range row indices,
// and sorted columns. Every length and pointer is checked before it is used
// as an index, so Check never panics on a malformed matrix; it returns a
// descriptive error instead.
func (a *CSC) Check() error {
	if a.N < 0 || a.M < 0 || len(a.Colptr) != a.N+1 || a.Colptr[0] != 0 {
		return errBadColptr
	}
	nnz := len(a.Rowidx)
	if a.Colptr[a.N] != nnz || len(a.Values) != nnz {
		return errBadColptr
	}
	for j := 0; j < a.N; j++ {
		p0, p1 := a.Colptr[j], a.Colptr[j+1]
		if p0 > p1 || p1 > nnz {
			return errBadColptr
		}
		prev := -1
		for _, i := range a.Rowidx[p0:p1] {
			if i < 0 || i >= a.M {
				return errRowRange
			}
			if i <= prev {
				return errUnsorted
			}
			prev = i
		}
	}
	return nil
}

// checkedKey is the context key of WithCheckedInput.
type checkedKey struct{}

// WithCheckedInput returns ctx marked as handing along a CSC that has
// passed Check, or was built valid by construction, so a validation screen
// downstream may skip its own structural pass. Mark only a context whose
// calls receive that very matrix.
func WithCheckedInput(ctx context.Context) context.Context {
	return context.WithValue(ctx, checkedKey{}, true)
}

// CheckedInput reports whether ctx carries the WithCheckedInput mark.
func CheckedInput(ctx context.Context) bool {
	marked, _ := ctx.Value(checkedKey{}).(bool)
	return marked
}
