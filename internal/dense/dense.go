// Package dense provides the small column-major dense kernels used by the
// supernodal baseline solver and, since the density-adaptive kernel layer,
// by the fine-ND engine's fill-heavy separator blocks: panel LU (unpivoted
// and partially pivoted), triangular solves and rank-k updates. They are
// deliberately simple loop nests with contiguous column access — the point
// is to capture the *algorithmic* behaviour of a BLAS-based solver (dense
// panels amortize memory traffic on high-fill matrices), not to compete
// with vendor BLAS.
package dense

import (
	"errors"
	"math"
)

// ErrSingular reports a zero pivot during unpivoted panel factorization, or
// an all-zero pivot column during pivoted factorization.
var ErrSingular = errors.New("dense: zero pivot")

// Matrix is a column-major dense matrix view: element (i,j) is
// Data[j*LD+i].
type Matrix struct {
	Rows, Cols int
	LD         int
	Data       []float64
}

// New allocates a zeroed rows×cols matrix with LD = rows.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, LD: rows, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[j*m.LD+i] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[j*m.LD+i] = v }

// Col returns the slice backing column j (length Rows).
func (m *Matrix) Col(j int) []float64 { return m.Data[j*m.LD : j*m.LD+m.Rows] }

// LUNoPivot factors the leading kxk block of the panel in place without
// pivoting and updates the rows below: on return the strictly lower part of
// the first k columns holds L (unit diagonal implicit), the upper part U.
// The panel has Rows >= k rows; rows k..Rows-1 of the first k columns hold
// the off-diagonal L block after the call.
//
// minPiv implements static pivot perturbation à la Pardiso/SuperLU-Dist:
// a pivot smaller in magnitude than minPiv is replaced by ±minPiv. With
// minPiv == 0 a zero pivot returns ErrSingular instead.
func (m *Matrix) LUNoPivot(k int, minPiv float64) error {
	for d := 0; d < k; d++ {
		piv := m.At(d, d)
		if piv < minPiv && piv > -minPiv {
			if minPiv == 0 {
				return ErrSingular
			}
			if piv < 0 {
				piv = -minPiv
			} else {
				piv = minPiv
			}
			m.Set(d, d, piv)
		}
		if piv == 0 {
			return ErrSingular
		}
		cd := m.Col(d)
		inv := 1 / piv
		for i := d + 1; i < m.Rows; i++ {
			cd[i] *= inv
		}
		for j := d + 1; j < k; j++ {
			cj := m.Col(j)
			f := cj[d]
			if f == 0 {
				continue
			}
			for i := d + 1; i < m.Rows; i++ {
				cj[i] -= float64(f * cd[i])
			}
		}
	}
	return nil
}

// LUPartialPivot factors the leading Cols columns of the panel in place
// with row partial pivoting, right-looking: on return the strictly lower
// part of column d holds L (unit diagonal implicit) and the upper part U,
// both in pivot order. rows must have length Rows and carry the original
// row id of each panel position (typically initialized to the identity); on
// return rows[k] is the original row that pivots step k — the factor's P.
//
// The pivot rule mirrors the sparse Gilbert–Peierls kernel's: the remaining
// row of largest magnitude wins, unless the natural row (original row d) is
// still unpivoted and within tol of the maximum — the diagonal preference
// that protects a fill-reducing ordering. noPivot forces the natural row
// (static pivoting) and fails on a zero natural pivot.
func (m *Matrix) LUPartialPivot(tol float64, noPivot bool, rows []int) error {
	n := m.Cols
	for d := 0; d < n; d++ {
		cd := m.Col(d)
		// Pivot search over the unpivoted positions d..Rows-1, tracking
		// where the natural row currently lives.
		best, nat := -1, -1
		maxAbs := 0.0
		for i := d; i < m.Rows; i++ {
			if v := math.Abs(cd[i]); v > maxAbs {
				maxAbs = v
				best = i
			}
			if rows[i] == d {
				nat = i
			}
		}
		piv := best
		if noPivot {
			if nat == -1 || cd[nat] == 0 {
				return ErrSingular
			}
			piv = nat
		} else {
			if best == -1 || maxAbs == 0 {
				return ErrSingular
			}
			if nat >= 0 {
				if v := math.Abs(cd[nat]); v >= tol*maxAbs && v > 0 {
					piv = nat
				}
			}
		}
		if piv != d {
			m.SwapRows(d, piv)
			rows[d], rows[piv] = rows[piv], rows[d]
		}
		pv := cd[d]
		// Division (not reciprocal multiplication) keeps the per-element
		// arithmetic bitwise identical to the sparse kernels' refresh paths.
		for i := d + 1; i < m.Rows; i++ {
			cd[i] /= pv
		}
		lo := cd[d+1 : m.Rows]
		for j := d + 1; j < n; j++ {
			cj := m.Col(j)
			f := cj[d]
			if f == 0 {
				continue
			}
			tgt := cj[d+1 : m.Rows]
			tgt = tgt[:len(lo)] // bounds-check elimination hint
			for i, v := range lo {
				tgt[i] -= float64(f * v)
			}
		}
	}
	return nil
}

// SwapRows exchanges rows a and b across every column.
func (m *Matrix) SwapRows(a, b int) {
	for j := 0; j < m.Cols; j++ {
		c := m.Col(j)
		c[a], c[b] = c[b], c[a]
	}
}

// Workspace pools the scratch of the dense kernel layer: one panel buffer
// plus integer row scratch, grown on demand and reused forever, so the hot
// factorization loops allocate nothing in steady state. One panel is live
// at a time per workspace (each kernel call replaces the previous view).
type Workspace struct {
	buf  []float64
	rows []int
	mat  Matrix
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Panel returns a zeroed rows×cols column-major view backed by the pooled
// buffer. The view (and its Data) is valid until the next Panel call.
func (w *Workspace) Panel(rows, cols int) *Matrix {
	n := rows * cols
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	w.buf = w.buf[:n]
	clear(w.buf)
	w.mat = Matrix{Rows: rows, Cols: cols, LD: rows, Data: w.buf}
	return &w.mat
}

// Rows returns pooled integer scratch of length n (contents unspecified).
func (w *Workspace) Rows(n int) []int {
	if cap(w.rows) < n {
		w.rows = make([]int, n)
	}
	return w.rows[:n]
}

// TRSMLowerUnit solves L·X = B in place where L is the kxk unit lower
// triangle stored in the first k rows/cols of lu, and B is the kxcols
// matrix b (overwritten by X).
func TRSMLowerUnit(lu *Matrix, k int, b *Matrix) {
	for j := 0; j < b.Cols; j++ {
		col := b.Col(j)
		for d := 0; d < k; d++ {
			xd := col[d]
			if xd == 0 {
				continue
			}
			ld := lu.Col(d)
			for i := d + 1; i < k; i++ {
				col[i] -= float64(ld[i] * xd)
			}
		}
	}
}

// GEMMSub computes C -= A·B where A is m×k, B is k×n, C is m×n.
func GEMMSub(c *Matrix, a *Matrix, b *Matrix) {
	for j := 0; j < c.Cols; j++ {
		cj := c.Col(j)
		bj := b.Col(j)
		for l := 0; l < a.Cols; l++ {
			f := bj[l]
			if f == 0 {
				continue
			}
			al := a.Col(l)
			for i := 0; i < c.Rows; i++ {
				cj[i] -= float64(al[i] * f)
			}
		}
	}
}
