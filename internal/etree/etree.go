// Package etree provides elimination-tree machinery: tree construction for
// symmetric patterns (A+Aᵀ) and for AᵀA (column elimination trees), postorder
// computation, Cholesky-style column counts used as fill estimates for LU
// factor allocation, and level sets used for 1D level-scheduled parallelism
// (the SLU-MT baseline) — the paper's Algorithm 3 builds per-block versions
// of exactly these quantities.
package etree

import "repro/internal/sparse"

// Workspace holds the scratch of the graph-based tree and count kernels so
// a caller analyzing many blocks reuses it. The zero value is ready to use.
// Slices returned by its methods are owned by it and valid until the same
// method is called again.
type Workspace struct {
	parent, count, mark, inv []int
}

// Symmetric computes the elimination tree of the symmetric pattern of
// a + aᵀ. parent[j] is the etree parent of column j, or -1 for roots.
func Symmetric(a *sparse.CSC) []int {
	var g sparse.SymGraph
	g.Build(a, 0, a.N, nil)
	return new(Workspace).Symmetric(&g, nil)
}

// relabel prepares the old-to-new map of a new-to-old labelling perm (nil
// for the identity, which needs none).
func (ws *Workspace) relabel(perm []int) []int {
	if perm == nil {
		return nil
	}
	ws.inv = sparse.GrowInts(ws.inv, len(perm))
	for k, v := range perm {
		ws.inv[v] = k
	}
	return ws.inv
}

// Symmetric computes the elimination tree of g with its vertices relabelled
// by the new-to-old permutation perm (nil for the identity): the tree of
// the symmetrically permuted pattern, without forming it.
func (ws *Workspace) Symmetric(g *sparse.SymGraph, perm []int) []int {
	n := g.N
	inv := ws.relabel(perm)
	ws.parent = sparse.GrowInts(ws.parent, n)
	ws.mark = sparse.GrowInts(ws.mark, n)
	parent, ancestor := ws.parent, ws.mark
	for j := 0; j < n; j++ {
		parent[j] = -1
		ancestor[j] = -1
		v := j
		if perm != nil {
			v = perm[j]
		}
		for _, i := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
			if inv != nil {
				i = inv[i]
			}
			// Walk from i up to the root of its subtree with path
			// compression, attaching to j.
			for i < j && i != -1 {
				next := ancestor[i]
				ancestor[i] = j
				if next == -1 {
					parent[i] = j
				}
				i = next
			}
		}
	}
	return parent
}

// ColEtree computes the column elimination tree, the etree of AᵀA without
// forming AᵀA (Gilbert–Ng). It bounds LU fill under arbitrary partial
// pivoting and is the tree Basker consults when pivoting is enabled.
func ColEtree(a *sparse.CSC) []int {
	m, n := a.M, a.N
	parent := make([]int, n)
	root := make([]int, n)     // root of current subtree containing col j
	firstCol := make([]int, m) // first column whose pattern contains row i
	for i := range firstCol {
		firstCol[i] = -1
	}
	for j := 0; j < n; j++ {
		parent[j] = -1
		root[j] = j
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			if firstCol[i] == -1 {
				firstCol[i] = j
				continue
			}
			// Row i links column firstCol[i]'s subtree to j.
			k := firstCol[i]
			// Find root with path compression.
			r := k
			for root[r] != r {
				r = root[r]
			}
			for root[k] != r {
				k, root[k] = root[k], r
			}
			if r != j {
				parent[r] = j
				root[r] = j
			}
			firstCol[i] = j
		}
	}
	return parent
}

// RelaxedSupernodes partitions columns 0..n-1 into supernode candidates
// from the (column) elimination tree, SuperLU-style: a fundamental
// supernode is a maximal run of consecutive columns forming a chain in the
// tree (parent[k] == k+1), whose factor columns then share one nested
// U-pattern and can be eliminated as a blocked dense panel. Relaxed
// amalgamation additionally absorbs small subtrees that terminate inside
// the run — any run [a, b) where every column's parent stays inside
// (k, b-1], a subtree rooted at the run's last column — trading a few
// explicit structural zeros for wider panels, with
// the subtree width capped at relax (SuperLU's relaxation parameter) and
// chain length capped at maxWidth so panel scratch stays bounded.
//
// A chain in the tree does NOT imply nested factor patterns — a
// tridiagonal matrix is one long chain whose factor columns hold two
// nonzeros each, and padding such a run into a shared-pattern panel
// inflates storage and flops quadratically in the width; worse, partial
// pivoting scrambles the below-diagonal patterns the static tree cannot
// see, so sparse chains that look nested in the estimate union into huge
// padded panels at numeric time. When counts is non-nil (factor column
// counts, ColCounts-style fill estimates), a column may therefore join a
// wide run only from the trailing near-dense region of the factor —
// counts[k] at least half the remaining dimension — which is where the
// nested-pattern model is honest even under pivoting, and the run is
// additionally only accepted while its padded panel (every column widened
// to the model counts[b-1] + (b-1-k)) stays within 25% of the estimated
// true fill. A nil counts skips both bounds and partitions on structure
// alone.
//
// The returned xsup holds the supernode boundaries: supernode s spans
// columns [xsup[s], xsup[s+1]), with xsup[0] = 0 and xsup[len-1] = n.
func RelaxedSupernodes(parent, counts []int, relax, maxWidth int) []int {
	n := len(parent)
	if relax < 1 {
		relax = 1
	}
	if maxWidth < relax {
		maxWidth = relax
	}
	xsup := make([]int, 1, n/2+2)
	for a := 0; a < n; {
		// Take the widest valid run [a, b): every in-run column's parent
		// stays inside (k, b-1], i.e. the run is a subtree rooted at column
		// b-1. Validity is not monotone in b — sibling subtrees at the run's
		// front are invalid prefixes of a valid wider run — so each candidate
		// boundary is checked at its own root, not incrementally. A pure
		// chain (parent[k] == k+1 throughout) extends up to maxWidth, a
		// relaxed run (some subtree absorbed) only up to relax.
		best := a + 1
		chain := true
		actual := 0
		for b := a + 1; b <= n && b-a <= maxWidth; b++ {
			if counts != nil {
				if 2*counts[b-1] < n-(b-1) {
					// Column b-1 sits outside the trailing near-dense
					// region; no run containing it can panel profitably.
					break
				}
				actual += counts[b-1] // running sum over [a, b)
			}
			if b > a+1 {
				chain = chain && parent[b-2] == b-1
			}
			if !chain && b-a > relax {
				break
			}
			ok := true
			for k := a; k < b-1; k++ {
				if parent[k] <= k || parent[k] > b-1 {
					ok = false
					break
				}
			}
			if ok && counts != nil {
				// Padded panel: w columns at the nested-pattern model
				// rooted at b-1. Accept while padded <= 1.25 * actual.
				w := b - a
				padded := w*counts[b-1] + w*(w-1)/2
				ok = 4*padded <= 5*actual
			}
			if ok {
				best = b
			}
		}
		xsup = append(xsup, best)
		a = best
	}
	return xsup
}

// Postorder returns a postordering of the forest given by parent (children
// visited before parents, trees in index order).
func Postorder(parent []int) []int {
	n := len(parent)
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	// Build child lists in reverse so traversal visits children ascending.
	for v := n - 1; v >= 0; v-- {
		p := parent[v]
		if p != -1 {
			next[v] = head[p]
			head[p] = v
		}
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, 64)
	for r := 0; r < n; r++ {
		if parent[r] != -1 {
			continue
		}
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			c := head[v]
			if c == -1 {
				post = append(post, v)
				stack = stack[:len(stack)-1]
				continue
			}
			head[v] = next[c]
			stack = append(stack, c)
		}
	}
	return post
}

// ColCounts returns, for each column j, the number of nonzeros in column j
// of the Cholesky factor of the symmetric pattern of a + aᵀ (including the
// diagonal). This is the fill estimate the solvers use to size LU factor
// storage. It runs the row-subtree traversal: O(|L|) time.
func ColCounts(a *sparse.CSC, parent []int) []int {
	var g sparse.SymGraph
	g.Build(a, 0, a.N, nil)
	return new(Workspace).ColCounts(&g, nil, parent)
}

// ColCounts is the column-count kernel on g relabelled by perm (as in
// Symmetric); parent is the elimination tree under the same labelling.
func (ws *Workspace) ColCounts(g *sparse.SymGraph, perm, parent []int) []int {
	n := g.N
	inv := ws.relabel(perm)
	ws.count = sparse.GrowInts(ws.count, n)
	ws.mark = sparse.GrowInts(ws.mark, n)
	count, mark := ws.count, ws.mark
	for i := range mark {
		mark[i] = -1
		count[i] = 0
	}
	for i := 0; i < n; i++ {
		count[i]++ // diagonal
		mark[i] = i
		v := i
		if perm != nil {
			v = perm[i]
		}
		// Row subtree of i: paths from each k (k<i, a[i,k]!=0) up to i.
		for _, k := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
			if inv != nil {
				k = inv[k]
			}
			if k >= i {
				continue
			}
			for j := k; j != -1 && mark[j] != i; j = parent[j] {
				mark[j] = i
				count[j]++
			}
		}
	}
	return count
}

// LevelSets partitions the forest into levels where level 0 holds leaves
// and level l nodes depend only on strictly lower levels. Returns the level
// of each node and the nodes grouped by level — the schedule used by the
// 1D parallel baseline.
func LevelSets(parent []int) (level []int, byLevel [][]int) {
	n := len(parent)
	level = make([]int, n)
	// Children depth-first accumulation: level[v] = 1 + max(level of
	// children). Process in topological (children-first) order: a postorder
	// guarantees children come first.
	post := Postorder(parent)
	maxLevel := 0
	for _, v := range post {
		p := parent[v]
		if p != -1 && level[v]+1 > level[p] {
			level[p] = level[v] + 1
		}
		if level[v] > maxLevel {
			maxLevel = level[v]
		}
	}
	byLevel = make([][]int, maxLevel+1)
	for v := 0; v < n; v++ {
		byLevel[level[v]] = append(byLevel[level[v]], v)
	}
	return level, byLevel
}
