// Package slumt implements the SuperLU-MT-like baseline used in the paper's
// Figure 5: a shared-memory parallel LU with a flat one-dimensional data
// layout. It reuses the PMKL-style static analysis (no BTF, symmetric-union
// fill pattern, static pivoting) but factors column by column, scheduling
// columns by elimination-tree level with a global barrier between levels —
// exactly the 1D structure whose separator bottleneck Figure 1 of the paper
// illustrates. Compared to the supernodal baseline it has finer-grained
// barriers and no dense panels, so it trails PMKL on most matrices, which
// is the behaviour the paper reports.
package slumt

import (
	"fmt"
	"sync"

	"repro/internal/etree"
	"repro/internal/pmkl"
	"repro/internal/sparse"
)

// Options configures the numeric phase.
type Options struct {
	Threads int
	// PerturbRel is the static pivot perturbation threshold (default
	// 1e-10, as in the PMKL baseline).
	PerturbRel float64
}

// DefaultOptions returns single-threaded defaults.
func DefaultOptions() Options { return Options{Threads: 1, PerturbRel: 1e-10} }

// Numeric is a factorization with the 1D column layout.
type Numeric struct {
	Sym  *pmkl.Symbolic
	L, U *sparse.CSC
	Opts Options
}

// Factor analyzes and factors a with the 1D level-scheduled algorithm.
func Factor(a *sparse.CSC, opts Options) (*Numeric, error) {
	sym, err := pmkl.Analyze(a, pmkl.Options{Threads: 1})
	if err != nil {
		return nil, fmt.Errorf("slumt: %w", err)
	}
	return FactorWithSymbolic(a, sym, opts)
}

// FactorWithSymbolic runs the numeric phase against an existing analysis.
func FactorWithSymbolic(a *sparse.CSC, sym *pmkl.Symbolic, opts Options) (*Numeric, error) {
	if a.N != sym.N {
		return nil, fmt.Errorf("slumt: dimension mismatch")
	}
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	if opts.PerturbRel <= 0 {
		opts.PerturbRel = 1e-10
	}
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	num := &Numeric{Sym: sym, L: sym.LPat.Clone(), U: sym.UPat.Clone(), Opts: opts}
	for i := range num.L.Values {
		num.L.Values[i] = 0
	}
	minPiv := opts.PerturbRel * b.MaxAbs()

	// Column-level schedule from the scalar etree.
	_, byLevel := etree.LevelSets(sym.Parent)

	var firstErr error
	var errMu sync.Mutex
	for _, level := range byLevel {
		work := make(chan int, len(level))
		for _, c := range level {
			work <- c
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < opts.Threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float64, sym.N)
				for j := range work {
					if err := factorColumn(num, b, j, x, minPiv); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return num, nil
}

// factorColumn performs the static-pattern left-looking update for one
// column: x = A(:,j); for each k in U(:,j) ascending, x -= L(:,k)·x[k];
// then scale below the pivot.
func factorColumn(num *Numeric, b *sparse.CSC, j int, x []float64, minPiv float64) error {
	l, u := num.L, num.U
	for p := b.Colptr[j]; p < b.Colptr[j+1]; p++ {
		x[b.Rowidx[p]] = b.Values[p]
	}
	up0, up1 := u.Colptr[j], u.Colptr[j+1]
	for p := up0; p < up1-1; p++ {
		k := u.Rowidx[p]
		xk := x[k]
		u.Values[p] = xk
		x[k] = 0
		if xk == 0 {
			continue
		}
		for q := l.Colptr[k] + 1; q < l.Colptr[k+1]; q++ {
			x[l.Rowidx[q]] -= l.Values[q] * xk
		}
	}
	piv := x[j]
	if piv < minPiv && piv > -minPiv {
		if piv < 0 {
			piv = -minPiv
		} else {
			piv = minPiv
		}
		if minPiv == 0 {
			return fmt.Errorf("slumt: zero pivot at column %d", j)
		}
	}
	u.Values[up1-1] = piv
	x[j] = 0
	lp0, lp1 := l.Colptr[j], l.Colptr[j+1]
	l.Values[lp0] = 1
	for p := lp0 + 1; p < lp1; p++ {
		i := l.Rowidx[p]
		l.Values[p] = x[i] / piv
		x[i] = 0
	}
	return nil
}

// Solve solves A x = rhs in place.
func (num *Numeric) Solve(rhs []float64) {
	sym := num.Sym
	n := sym.N
	y := make([]float64, n)
	for k := 0; k < n; k++ {
		y[k] = rhs[sym.RowPerm[k]]
	}
	l := num.L
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := l.Colptr[j] + 1; p < l.Colptr[j+1]; p++ {
			y[l.Rowidx[p]] -= l.Values[p] * yj
		}
	}
	u := num.U
	for j := n - 1; j >= 0; j-- {
		p1 := u.Colptr[j+1]
		yj := y[j] / u.Values[p1-1]
		y[j] = yj
		if yj == 0 {
			continue
		}
		for p := u.Colptr[j]; p < p1-1; p++ {
			y[u.Rowidx[p]] -= u.Values[p] * yj
		}
	}
	for k := 0; k < n; k++ {
		rhs[sym.ColPerm[k]] = y[k]
	}
}

// NnzLU reports |L+U|.
func (num *Numeric) NnzLU() int { return num.Sym.NnzLU() }
