// Package pmkl implements the supernodal baseline solver standing in for
// Intel MKL Pardiso ("PMKL" in the paper). It mirrors the algorithmic
// choices the paper contrasts Basker against:
//
//   - no block triangular form: the whole matrix is factored at once;
//   - static pivoting: a weighted matching moves large entries to the
//     diagonal, then no numerical row exchanges happen during the numeric
//     phase (tiny pivots are perturbed, as Pardiso does);
//   - symmetric-union fill: the factor pattern is the Cholesky pattern of
//     A+Aᵀ under an AMD ordering, computed once symbolically — this is why
//     PMKL's |L+U| is much larger than KLU/Basker's on low fill-in circuit
//     matrices (Table I) and why it wins on high fill-in mesh matrices;
//   - supernodes: chains of columns with identical pattern are factored as
//     dense panels with dense kernels;
//   - etree parallelism: independent supernodes run concurrently, level by
//     level.
package pmkl

import (
	"fmt"
	"sync"

	"repro/internal/dense"
	"repro/internal/etree"
	"repro/internal/order/amd"
	"repro/internal/order/matching"
	"repro/internal/order/nd"
	"repro/internal/sparse"
)

// Options configures the solver.
type Options struct {
	// Threads is the number of worker goroutines for the numeric phase
	// (defaults to 1).
	Threads int
	// SupernodeMax caps supernode width (default 32).
	SupernodeMax int
	// PerturbRel is the relative static-pivot perturbation threshold:
	// pivots below PerturbRel*max|A| are bumped (default 1e-10).
	PerturbRel float64
}

// DefaultOptions returns the defaults described above.
func DefaultOptions() Options {
	return Options{Threads: 1, SupernodeMax: 32, PerturbRel: 1e-10}
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

func (o Options) snmax() int {
	if o.SupernodeMax < 1 {
		return 32
	}
	return o.SupernodeMax
}

func (o Options) perturb() float64 {
	if o.PerturbRel <= 0 {
		return 1e-10
	}
	return o.PerturbRel
}

// Symbolic holds the static analysis: orderings, factor patterns,
// supernodes, and the level schedule.
type Symbolic struct {
	N       int
	RowPerm []int // new-to-old (matching ∘ AMD)
	ColPerm []int // new-to-old (AMD)
	Parent  []int // etree of the permuted symmetric pattern

	// LPat/UPat are the static factor patterns (values unused), columns
	// sorted; LPat includes the diagonal first per column, UPat has the
	// diagonal last per column.
	LPat, UPat *sparse.CSC

	// Super[s]..Super[s+1] are the columns of supernode s.
	Super []int
	// SnByLevel schedules supernodes: all supernodes in level l depend only
	// on lower levels.
	SnByLevel [][]int

	Opts Options
}

// NumSupernodes reports the supernode count.
func (s *Symbolic) NumSupernodes() int { return len(s.Super) - 1 }

// NnzLU reports the static |L+U| (both diagonals counted once).
func (s *Symbolic) NnzLU() int { return s.LPat.Nnz() + s.UPat.Nnz() - s.N }

// Numeric holds factor values aligned with the symbolic patterns.
type Numeric struct {
	Sym  *Symbolic
	L, U *sparse.CSC
}

// Analyze orders the matrix and computes the static factor structure.
func Analyze(a *sparse.CSC, opts Options) (*Symbolic, error) {
	if a.M != a.N {
		return nil, fmt.Errorf("pmkl: matrix must be square, got %d×%d", a.M, a.N)
	}
	n := a.N
	match, err := matching.Bottleneck(a)
	if err != nil {
		return nil, fmt.Errorf("pmkl: matching: %w", err)
	}
	b1 := a.Permute(match.RowPerm, nil)
	// Fill-reducing ordering: nested dissection with AMD inside the parts,
	// exactly as Pardiso uses METIS — ND is what gives the supernodal
	// elimination tree its parallelism. Small matrices fall back to AMD.
	p := orderNDAMD(b1)
	rowPerm := make([]int, n)
	for k := 0; k < n; k++ {
		rowPerm[k] = match.RowPerm[p[k]]
	}
	sym := &Symbolic{N: n, RowPerm: rowPerm, ColPerm: p, Opts: opts}
	b := b1.Permute(p, p)

	// Static symbolic factorization of the symmetric union pattern.
	var g sparse.SymGraph
	g.Build(b, 0, n, nil)
	ws := new(etree.Workspace)
	sym.Parent = ws.Symmetric(&g, nil)
	lpat := symbolicL(&g, sym.Parent, ws.ColCounts(&g, nil, sym.Parent))
	sym.LPat = lpat
	sym.UPat = upperFromLower(lpat)

	// Supernodes: maximal chains j -> j+1 with parent[j] = j+1 and nested
	// equal pattern (|L(:,j+1)| = |L(:,j)| - 1), capped at SupernodeMax.
	snmax := opts.snmax()
	sym.Super = []int{0}
	for j := 1; j < n; j++ {
		c0 := sym.Super[len(sym.Super)-1]
		colLen := func(c int) int { return lpat.Colptr[c+1] - lpat.Colptr[c] }
		if j-c0 < snmax && sym.Parent[j-1] == j && colLen(j) == colLen(j-1)-1 {
			continue
		}
		sym.Super = append(sym.Super, j)
	}
	sym.Super = append(sym.Super, n)

	// Supernodal etree levels.
	ns := len(sym.Super) - 1
	snOf := make([]int, n)
	for s := 0; s < ns; s++ {
		for c := sym.Super[s]; c < sym.Super[s+1]; c++ {
			snOf[c] = s
		}
	}
	snParent := make([]int, ns)
	for s := 0; s < ns; s++ {
		last := sym.Super[s+1] - 1
		if par := sym.Parent[last]; par != -1 {
			snParent[s] = snOf[par]
		} else {
			snParent[s] = -1
		}
	}
	_, sym.SnByLevel = etree.LevelSets(snParent)
	return sym, nil
}

// orderNDAMD computes the PMKL fill-reducing ordering: a nested-dissection
// tree (32 leaves) with an AMD ordering composed inside every tree block.
func orderNDAMD(b1 *sparse.CSC) []int {
	n := b1.N
	if n < 512 {
		return amd.Order(b1)
	}
	leaves := 32
	for leaves*32 > n && leaves > 2 {
		leaves /= 2
	}
	tree, err := nd.Compute(b1, leaves)
	if err != nil {
		return amd.Order(b1)
	}
	p := append([]int(nil), tree.Perm...)
	d2 := b1.Permute(tree.Perm, tree.Perm)
	for blk := 0; blk < tree.NumBlocks(); blk++ {
		b0, b1e := tree.BlockPtr[blk], tree.BlockPtr[blk+1]
		if b1e-b0 < 3 {
			continue
		}
		sub := d2.ExtractBlock(b0, b1e, b0, b1e)
		local := amd.Order(sub)
		for k := 0; k < b1e-b0; k++ {
			p[b0+k] = tree.Perm[b0+local[k]]
		}
	}
	return p
}

// symbolicL computes the full Cholesky-style pattern of L for the symmetric
// pattern g with the given etree and column counts, columns sorted,
// diagonal included.
func symbolicL(g *sparse.SymGraph, parent, counts []int) *sparse.CSC {
	n := g.N
	l := &sparse.CSC{M: n, N: n, Colptr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		l.Colptr[j+1] = l.Colptr[j] + counts[j]
	}
	l.Rowidx = make([]int, l.Colptr[n])
	l.Values = make([]float64, l.Colptr[n])
	next := make([]int, n)
	mark := make([]int, n)
	for j := 0; j < n; j++ {
		next[j] = l.Colptr[j]
		mark[j] = -1
		// Diagonal first.
		l.Rowidx[next[j]] = j
		next[j]++
		mark[j] = j
	}
	// Row subtrees: row i appears in column j for every j on the path from
	// each k (g(i,k) != 0, k < i) to i; traversing i ascending keeps each
	// column's rows sorted.
	for i := 0; i < n; i++ {
		for _, k := range g.Adj[g.Ptr[i]:g.Ptr[i+1]] {
			if k >= i {
				continue
			}
			for j := k; j != -1 && j < i && mark[j] != i; j = parent[j] {
				mark[j] = i
				l.Rowidx[next[j]] = i
				next[j]++
			}
		}
	}
	return l
}

// upperFromLower returns the U pattern (struct(L)ᵀ restricted to the upper
// triangle, diagonal last per column, sorted).
func upperFromLower(l *sparse.CSC) *sparse.CSC {
	// struct(U) = struct(L)ᵀ; transpose gives sorted columns where the
	// diagonal is the maximum row index of each column — i.e. last. Values
	// zeroed.
	u := l.Transpose()
	for i := range u.Values {
		u.Values[i] = 0
	}
	return u
}

// Factor runs the numeric phase with opts.Threads workers.
func Factor(a *sparse.CSC, sym *Symbolic) (*Numeric, error) {
	if a.N != sym.N {
		return nil, fmt.Errorf("pmkl: dimension mismatch")
	}
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	num := &Numeric{
		Sym: sym,
		L:   sym.LPat.Clone(),
		U:   sym.UPat.Clone(),
	}
	for i := range num.L.Values {
		num.L.Values[i] = 0
	}
	minPiv := sym.Opts.perturb() * b.MaxAbs()

	nthreads := sym.Opts.threads()
	var firstErr error
	var errMu sync.Mutex
	for _, level := range sym.SnByLevel {
		work := make(chan int, len(level))
		for _, s := range level {
			work <- s
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < nthreads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float64, sym.N)
				for s := range work {
					if err := factorSupernode(num, b, s, x, minPiv); err != nil {
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

// FactorDirect is the one-shot Analyze+Factor.
func FactorDirect(a *sparse.CSC, opts Options) (*Numeric, error) {
	sym, err := Analyze(a, opts)
	if err != nil {
		return nil, err
	}
	return Factor(a, sym)
}

// factorSupernode computes columns [Super[s], Super[s+1]) of L and U.
// External updates (from columns before the supernode) are applied
// column-wise over the static pattern; the supernode panel itself is
// factored densely.
func factorSupernode(num *Numeric, b *sparse.CSC, s int, x []float64, minPiv float64) error {
	sym := num.Sym
	l, u := num.L, num.U
	c0, c1 := sym.Super[s], sym.Super[s+1]
	w := c1 - c0
	// Panel rows: pattern of L(:,c0) (sorted; first w rows are c0..c1-1).
	rp0, rp1 := l.Colptr[c0], l.Colptr[c0+1]
	rows := l.Rowidx[rp0:rp1]
	panel := dense.New(len(rows), w)
	// Map global row -> panel row (only needed for rows in the panel).
	// Use a linear scan index since rows is sorted.
	for t := 0; t < w; t++ {
		j := c0 + t
		// Scatter A(:,j).
		for p := b.Colptr[j]; p < b.Colptr[j+1]; p++ {
			x[b.Rowidx[p]] = b.Values[p]
		}
		// External updates: k in U(:,j) pattern with k < c0, ascending.
		up0, up1 := u.Colptr[j], u.Colptr[j+1]
		for p := up0; p < up1-1; p++ {
			k := u.Rowidx[p]
			if k >= c0 {
				break
			}
			xk := x[k]
			u.Values[p] = xk
			if xk == 0 {
				continue
			}
			// x -= L(:,k)*xk over L's static pattern (skip unit diagonal).
			for q := l.Colptr[k] + 1; q < l.Colptr[k+1]; q++ {
				x[l.Rowidx[q]] -= l.Values[q] * xk
			}
		}
		// Gather panel column t: rows of L(:,c0) that are >= c0; the
		// column's own static pattern is rows[t:], but gathering the full
		// panel height keeps the dense block aligned (upper entries are
		// the U intra-block values).
		pc := panel.Col(t)
		for r, gi := range rows {
			pc[r] = x[gi]
			x[gi] = 0
		}
		// Clear any external-U scatter remnants (rows < c0 already
		// consumed into u.Values above).
		for p := up0; p < up1-1; p++ {
			k := u.Rowidx[p]
			if k >= c0 {
				break
			}
			x[k] = 0
		}
	}
	// Dense panel factorization: w pivot columns, perturbed static pivots.
	if err := panel.LUNoPivot(w, minPiv); err != nil {
		return fmt.Errorf("pmkl: supernode %d: %w", s, err)
	}
	// Scatter back into L and U values.
	for t := 0; t < w; t++ {
		j := c0 + t
		pc := panel.Col(t)
		// U intra-block: rows c0..j-1 then the pivot (diagonal last).
		up1 := u.Colptr[j+1]
		// The last t+1 entries of U(:,j) are rows c0..j: panel rows 0..t.
		for d := 0; d <= t; d++ {
			u.Values[up1-1-t+d] = pc[d]
		}
		// L(:,j): diagonal 1 plus panel rows t+1.. (pattern rows[t:]).
		lp0 := l.Colptr[j]
		l.Values[lp0] = 1
		for r := t + 1; r < len(rows); r++ {
			l.Values[lp0+r-t] = pc[r]
		}
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
	// Forward: L y' = y (unit diag first per column).
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
	// Backward: U x = y' (pivot last per column).
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

// NnzLU reports |L+U| with the two diagonals counted once.
func (num *Numeric) NnzLU() int { return num.Sym.NnzLU() }

// FillDensity reports |L+U|/|A|.
func (num *Numeric) FillDensity(a *sparse.CSC) float64 {
	return float64(num.NnzLU()) / float64(a.Nnz())
}

// Refactor recomputes values for a same-pattern matrix (static pivoting
// makes this identical to Factor numerically, reusing the analysis).
func (num *Numeric) Refactor(a *sparse.CSC) error {
	fresh, err := Factor(a, num.Sym)
	if err != nil {
		return err
	}
	num.L, num.U = fresh.L, fresh.U
	return nil
}
