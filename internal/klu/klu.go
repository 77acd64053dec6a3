// Package klu reimplements the KLU direct solver (Davis & Natarajan, ACM
// TOMS Algorithm 907): permute to block triangular form with a zero-free
// diagonal (maximum weight matching + strongly connected components), apply
// an AMD fill-reducing ordering to every diagonal block, factor each block
// with the serial Gilbert–Peierls algorithm, and solve by block
// back-substitution. It is the sequential baseline every speedup in the
// paper is measured against, and the algorithmic ancestor Basker
// parallelizes.
package klu

import (
	"fmt"
	"sync"

	"repro/internal/gp"
	"repro/internal/order"
	"repro/internal/order/btf"
	"repro/internal/sparse"
)

// Options configures the analysis and factorization.
type Options struct {
	// UseBTF enables the block triangular form (default true via
	// DefaultOptions). Without it the whole matrix is one block.
	UseBTF bool
	// UseMWCM selects the bottleneck weighted matching for the zero-free
	// diagonal; otherwise a cardinality matching is used.
	UseMWCM bool
	// PivotTol is the Gilbert–Peierls diagonal preference tolerance.
	PivotTol float64
}

// DefaultOptions mirror KLU's defaults.
func DefaultOptions() Options {
	return Options{UseBTF: true, UseMWCM: true, PivotTol: gp.DefaultPivotTol}
}

// Symbolic holds the ordering analysis, reusable across matrices with the
// same pattern.
type Symbolic struct {
	N        int
	RowPerm  []int // new-to-old, matching ∘ BTF ∘ per-block AMD
	ColPerm  []int
	BlockPtr []int
	EstNnz   []int // per-block factor-size estimate
	Opts     Options

	// BTFPercent and NumBlocks feed the Table I statistics.
	BTFPercent float64
}

// NumBlocks reports the number of BTF diagonal blocks.
func (s *Symbolic) NumBlocks() int { return len(s.BlockPtr) - 1 }

// Numeric holds the factored blocks plus the permuted off-diagonal entries
// needed for the solve.
type Numeric struct {
	Sym     *Symbolic
	Blocks  []*gp.Factors
	Perm    *sparse.CSC // B = A(RowPerm, ColPerm), kept for off-block solve
	FlopsLU int64
}

// Analyze computes the BTF + AMD orderings for the pattern of a.
func Analyze(a *sparse.CSC, opts Options) (*Symbolic, error) {
	if a.M != a.N {
		return nil, fmt.Errorf("klu: matrix must be square, got %d×%d", a.M, a.N)
	}
	n := a.N
	sym := &Symbolic{N: n, Opts: opts}

	if opts.UseBTF {
		ws := btfWSPool.Get().(*btf.Workspace)
		form, err := btf.ComputeWith(a, opts.UseMWCM, ws)
		btfWSPool.Put(ws)
		if err != nil {
			return nil, fmt.Errorf("klu: btf: %w", err)
		}
		sym.RowPerm = form.RowPerm
		sym.ColPerm = form.ColPerm
		sym.BlockPtr = form.BlockPtr
		sym.BTFPercent = form.PercentInSmallBlocks(smallBlockThreshold)
	} else {
		sym.RowPerm = sparse.IdentityPerm(n)
		sym.ColPerm = sparse.IdentityPerm(n)
		sym.BlockPtr = []int{0, n}
		sym.BTFPercent = 0
	}

	// Per-block AMD on the diagonal blocks of the BTF-permuted pattern,
	// composed into the global permutations symmetrically, with the fill
	// estimate from the Cholesky column counts of the reordered block.
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	rowPerm := make([]int, n)
	colPerm := make([]int, n)
	sym.EstNnz = make([]int, sym.NumBlocks())
	ws := orderWSPool.Get().(*order.Workspace)
	for blk := range sym.EstNnz {
		sym.EstNnz[blk] = ws.Block(b, sym.BlockPtr[blk], sym.BlockPtr[blk+1], sym.RowPerm, sym.ColPerm, rowPerm, colPerm)
	}
	orderWSPool.Put(ws)
	sym.RowPerm = rowPerm
	sym.ColPerm = colPerm
	return sym, nil
}

// btfWSPool and orderWSPool recycle Analyze's scratch across calls; nothing
// drawn from them outlives the call, so a Symbolic retains no workspace.
var (
	btfWSPool   = sync.Pool{New: func() any { return btf.NewWorkspace() }}
	orderWSPool = sync.Pool{New: func() any { return new(order.Workspace) }}
)

// smallBlockThreshold matches the paper's notion of "small independent
// diagonal submatrices": anything below this size counts toward BTF%.
const smallBlockThreshold = 512

// Factor numerically factors a using a prior analysis.
func Factor(a *sparse.CSC, sym *Symbolic) (*Numeric, error) {
	if a.N != sym.N || a.M != sym.N {
		return nil, fmt.Errorf("klu: dimension mismatch with symbolic analysis")
	}
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	num := &Numeric{Sym: sym, Perm: b, Blocks: make([]*gp.Factors, sym.NumBlocks())}
	ws := gp.NewWorkspace(sym.N)
	opts := gp.Options{PivotTol: sym.Opts.PivotTol}
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		sub := b.ExtractBlock(r0, r1, r0, r1)
		f, err := gp.Factor(sub, sym.EstNnz[blk], opts, ws)
		if err != nil {
			return nil, fmt.Errorf("klu: block %d (rows %d..%d): %w", blk, r0, r1, err)
		}
		num.Blocks[blk] = f
		num.FlopsLU += f.Flops
	}
	return num, nil
}

// FactorDirect is the convenience one-shot Analyze+Factor.
func FactorDirect(a *sparse.CSC, opts Options) (*Numeric, error) {
	sym, err := Analyze(a, opts)
	if err != nil {
		return nil, err
	}
	return Factor(a, sym)
}

// Refactor recomputes the numeric values for a matrix with the same pattern
// (and acceptable pivots), reusing orderings, patterns and pivot sequences.
func (num *Numeric) Refactor(a *sparse.CSC) error {
	sym := num.Sym
	if a.N != sym.N {
		return fmt.Errorf("klu: refactor dimension mismatch")
	}
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	num.Perm = b
	ws := gp.NewWorkspace(sym.N)
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		sub := b.ExtractBlock(r0, r1, r0, r1)
		if err := num.Blocks[blk].Refactor(sub, ws); err != nil {
			return fmt.Errorf("klu: refactor block %d: %w", blk, err)
		}
	}
	return nil
}

// Solve solves A x = b, overwriting b with x.
func (num *Numeric) Solve(b []float64) {
	sym := num.Sym
	n := sym.N
	y := make([]float64, n)
	for k := 0; k < n; k++ {
		y[k] = b[sym.RowPerm[k]]
	}
	// Block back-substitution, last block first.
	for blk := sym.NumBlocks() - 1; blk >= 0; blk-- {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		z := y[r0:r1]
		num.Blocks[blk].Solve(z)
		// Subtract the influence of this block's solution on earlier rows.
		for c := r0; c < r1; c++ {
			xc := y[c]
			if xc == 0 {
				continue
			}
			for p := num.Perm.Colptr[c]; p < num.Perm.Colptr[c+1]; p++ {
				i := num.Perm.Rowidx[p]
				if i >= r0 {
					break // rows within the block: already handled
				}
				y[i] -= float64(num.Perm.Values[p] * xc)
			}
		}
	}
	for k := 0; k < n; k++ {
		b[sym.ColPerm[k]] = y[k]
	}
}

// NnzLU reports |L+U|: factored entries in all diagonal blocks plus the
// off-diagonal entries of the permuted matrix that participate in the
// solve. This is the statistic of Table I (which can be smaller than |A|).
func (num *Numeric) NnzLU() int {
	total := 0
	for _, f := range num.Blocks {
		total += f.NnzLU()
	}
	// Off-diagonal (above-block) entries.
	sym := num.Sym
	blockOf := make([]int, sym.N)
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		for i := sym.BlockPtr[blk]; i < sym.BlockPtr[blk+1]; i++ {
			blockOf[i] = blk
		}
	}
	for j := 0; j < sym.N; j++ {
		bj := blockOf[j]
		for p := num.Perm.Colptr[j]; p < num.Perm.Colptr[j+1]; p++ {
			if blockOf[num.Perm.Rowidx[p]] != bj {
				total++
			}
		}
	}
	return total
}

// FillDensity reports |L+U| / |A|, Table I's fill-in density.
func (num *Numeric) FillDensity(a *sparse.CSC) float64 {
	return float64(num.NnzLU()) / float64(a.Nnz())
}
