// Package nd implements the nested-dissection ordering Basker applies to
// the large BTF block (the paper's D2): a recursive graph bisection that
// produces a binary tree with 2^k leaves, where each internal node is a
// vertex separator. The permuted matrix has the 2D doubly-bordered
// block-diagonal shape of Figure 3(a) in the paper, with blocks numbered in
// postorder (left subtree, right subtree, separator) so that every subtree
// occupies a contiguous index range ending in its separator.
//
// Bisection uses BFS level structures from a pseudo-peripheral vertex: a
// whole BFS level near the balance point is chosen as the vertex separator
// (smallest such level), then a trimming pass moves separator vertices that
// touch only one side into that side. Disconnected graphs are handled by
// greedy component packing.
package nd

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Tree is a nested-dissection block tree over an n-vertex graph.
type Tree struct {
	// NumLeaves is the number of leaf blocks (a power of two).
	NumLeaves int
	// Perm is the new-to-old vertex permutation; block b owns permuted
	// indices BlockPtr[b]..BlockPtr[b+1].
	Perm     []int
	BlockPtr []int
	// Parent[b] is the parent block of b in the ND tree (-1 for the root).
	Parent []int
	// Height[b] is 0 for leaves and increases towards the root.
	Height []int
	// Leaves lists the leaf block ids left to right; thread t owns
	// Leaves[t].
	Leaves []int
}

// NumBlocks reports the number of tree nodes (2*NumLeaves - 1).
func (t *Tree) NumBlocks() int { return len(t.BlockPtr) - 1 }

// BlockSize reports the number of vertices in block b.
func (t *Tree) BlockSize(b int) int { return t.BlockPtr[b+1] - t.BlockPtr[b] }

// Compute builds the ND tree with the given number of leaves for the
// symmetric pattern graph of a (values ignored, A+Aᵀ formed internally).
// leaves must be a power of two and at least 1.
func Compute(a *sparse.CSC, leaves int) (*Tree, error) {
	if a.M != a.N {
		return nil, fmt.Errorf("nd: matrix must be square, got %d×%d", a.M, a.N)
	}
	var g sparse.SymGraph
	g.Build(a, 0, a.N, nil)
	return ComputeGraph(&g, leaves)
}

// ComputeGraph is Compute on an already-built adjacency structure. With one
// leaf the tree is the single block in natural order and g's adjacency is
// never read — only g.N is.
func ComputeGraph(g *sparse.SymGraph, leaves int) (*Tree, error) {
	if leaves < 1 || leaves&(leaves-1) != 0 {
		return nil, fmt.Errorf("nd: leaves must be a power of two, got %d", leaves)
	}
	n := g.N
	if leaves == 1 {
		return &Tree{
			NumLeaves: 1,
			Perm:      sparse.IdentityPerm(n),
			BlockPtr:  []int{0, n},
			Parent:    []int{-1},
			Height:    []int{0},
			Leaves:    []int{0},
		}, nil
	}
	depth := 0
	for 1<<depth < leaves {
		depth++
	}
	b := &builder{
		g:     g,
		gen:   make([]int, n),
		level: make([]int, n),
		queue: make([]int, 0, n),
	}
	all := sparse.IdentityPerm(n)
	t := &Tree{NumLeaves: leaves}
	t.Parent = make([]int, 0, 2*leaves-1)
	t.Height = make([]int, 0, 2*leaves-1)
	t.BlockPtr = append(t.BlockPtr, 0)
	t.Perm = make([]int, 0, n)
	b.tree = t
	root := b.build(all, depth)
	if root != -1 {
		t.Parent[root] = -1
	}
	return t, nil
}

type builder struct {
	g      *sparse.SymGraph
	gen    []int // membership generation marks
	curGen int
	level  []int
	queue  []int
	tree   *Tree
}

// build recursively dissects verts to the given remaining depth and returns
// the block id of the subtree root. Blocks are emitted in postorder.
func (b *builder) build(verts []int, depth int) int {
	t := b.tree
	if depth == 0 {
		id := len(t.Parent)
		t.Parent = append(t.Parent, -1)
		t.Height = append(t.Height, 0)
		t.Leaves = append(t.Leaves, id)
		t.Perm = append(t.Perm, verts...)
		t.BlockPtr = append(t.BlockPtr, len(t.Perm))
		return id
	}
	left, right, sep := b.bisect(verts)
	lid := b.build(left, depth-1)
	rid := b.build(right, depth-1)
	id := len(t.Parent)
	t.Parent = append(t.Parent, -1)
	t.Height = append(t.Height, depth)
	t.Parent[lid] = id
	t.Parent[rid] = id
	t.Perm = append(t.Perm, sep...)
	t.BlockPtr = append(t.BlockPtr, len(t.Perm))
	return id
}

// mark returns a fresh generation counter and marks verts as members.
func (b *builder) mark(verts []int) int {
	b.curGen++
	for _, v := range verts {
		b.gen[v] = b.curGen
	}
	return b.curGen
}

// bisect splits verts into (left, right, separator).
func (b *builder) bisect(verts []int) (left, right, sep []int) {
	if len(verts) == 0 {
		return nil, nil, nil
	}
	if len(verts) == 1 {
		return verts, nil, nil
	}
	gen := b.mark(verts)
	comps := b.components(verts, gen)
	if len(comps) > 1 {
		// Largest component below 60%: pure greedy packing, no separator.
		largest := 0
		for i, c := range comps {
			if len(c) > len(comps[largest]) {
				largest = i
			}
		}
		if float64(len(comps[largest])) < 0.6*float64(len(verts)) {
			// Pack components into two sides, biggest first.
			order := make([]int, len(comps))
			for i := range order {
				order[i] = i
			}
			for i := 0; i < len(order); i++ {
				for j := i + 1; j < len(order); j++ {
					if len(comps[order[j]]) > len(comps[order[i]]) {
						order[i], order[j] = order[j], order[i]
					}
				}
			}
			for _, ci := range order {
				if len(left) <= len(right) {
					left = append(left, comps[ci]...)
				} else {
					right = append(right, comps[ci]...)
				}
			}
			return left, right, nil
		}
		// Bisect the giant component; pack the rest onto the smaller side.
		gl, gr, gs := b.bisectConnected(comps[largest])
		left, right, sep = gl, gr, gs
		for i, c := range comps {
			if i == largest {
				continue
			}
			if len(left) <= len(right) {
				left = append(left, c...)
			} else {
				right = append(right, c...)
			}
		}
		return left, right, sep
	}
	return b.bisectConnected(verts)
}

// bisectConnected splits a connected vertex set using a BFS level-set
// vertex separator.
func (b *builder) bisectConnected(verts []int) (left, right, sep []int) {
	gen := b.mark(verts)
	src := b.pseudoPeripheral(verts, gen)
	nLevels := b.bfs(src, gen)
	if nLevels <= 1 {
		// Complete-graph-like set: take half as separator-free split is
		// impossible; put ceil(n/2) in the separator's place by splitting
		// arbitrarily with an empty separator only if no edges cross —
		// here everything is adjacent, so make the left half the
		// separator to stay correct.
		half := len(verts) / 2
		return verts[:half], nil, verts[half:]
	}
	// Count vertices per level.
	counts := make([]int, nLevels)
	for _, v := range verts {
		counts[b.level[v]]++
	}
	total := len(verts)
	// Choose the separator level by scoring each candidate: separator size
	// penalized by the imbalance of the sides it induces. Only levels whose
	// left share lands in [30%, 70%] are eligible; if none is, pick the
	// level closest to an even split.
	bestLevel, bestScore := -1, 1e300
	fallback, fallbackDist := 1, 1e300
	prefix := 0
	for l := 0; l < nLevels; l++ {
		loFrac := float64(prefix) / float64(total)
		prefix += counts[l]
		if l == 0 || l == nLevels-1 {
			continue // separator must leave both sides nonempty
		}
		if d := absf(loFrac - 0.5); d < fallbackDist {
			fallback, fallbackDist = l, d
		}
		if loFrac < 0.30 || loFrac > 0.70 {
			continue
		}
		score := float64(counts[l]) * (1 + 4*absf(loFrac-0.5))
		if score < bestScore {
			bestLevel, bestScore = l, score
		}
	}
	if bestLevel == -1 {
		bestLevel = fallback
	}
	for _, v := range verts {
		switch {
		case b.level[v] < bestLevel:
			left = append(left, v)
		case b.level[v] > bestLevel:
			right = append(right, v)
		default:
			sep = append(sep, v)
		}
	}
	left, right, sep = b.trimSeparator(left, right, sep)
	return left, right, sep
}

// trimSeparator moves separator vertices adjacent to only one side (or
// neither) into a side, shrinking the separator. One pass suffices for the
// common staircase shapes BFS levels produce.
func (b *builder) trimSeparator(left, right, sep []int) ([]int, []int, []int) {
	if len(sep) == 0 {
		return left, right, sep
	}
	// Tag sides: gen for left, gen+1 handled via second array trick — use
	// two fresh generations on the same array.
	b.curGen += 2
	lGen, rGen := b.curGen-1, b.curGen
	for _, v := range left {
		b.gen[v] = lGen
	}
	for _, v := range right {
		b.gen[v] = rGen
	}
	kept := sep[:0]
	for _, v := range sep {
		touchesL, touchesR := false, false
		for _, w := range b.g.Adj[b.g.Ptr[v]:b.g.Ptr[v+1]] {
			switch b.gen[w] {
			case lGen:
				touchesL = true
			case rGen:
				touchesR = true
			}
		}
		switch {
		case touchesL && touchesR:
			kept = append(kept, v)
		case touchesR:
			right = append(right, v)
			b.gen[v] = rGen
		default:
			// touches only left or is isolated: prefer the left side,
			// which BFS makes the smaller-or-equal one often enough.
			left = append(left, v)
			b.gen[v] = lGen
		}
	}
	return left, right, kept
}

// bfs runs a breadth-first search from src over vertices marked with gen,
// filling b.level, and returns the number of levels.
func (b *builder) bfs(src int, gen int) int {
	// A second generation value marks "visited".
	b.curGen++
	vis := b.curGen
	q := b.queue[:0]
	q = append(q, src)
	b.level[src] = 0
	b.gen[src] = vis
	maxLevel := 0
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, w := range b.g.Adj[b.g.Ptr[v]:b.g.Ptr[v+1]] {
			if b.gen[w] != gen {
				continue
			}
			b.gen[w] = vis
			b.level[w] = b.level[v] + 1
			if b.level[w] > maxLevel {
				maxLevel = b.level[w]
			}
			q = append(q, w)
		}
	}
	b.queue = q
	return maxLevel + 1
}

// pseudoPeripheral finds a vertex of (approximately) maximal eccentricity
// by repeated BFS sweeps.
func (b *builder) pseudoPeripheral(verts []int, gen int) int {
	src := verts[0]
	lastLevels := -1
	for iter := 0; iter < 4; iter++ {
		// Re-mark because bfs consumes the generation marks.
		g := b.mark(verts)
		levels := b.bfs(src, g)
		if levels <= lastLevels {
			break
		}
		lastLevels = levels
		// Farthest vertex with the smallest degree.
		far, farDeg := src, math.MaxInt
		for _, v := range verts {
			if b.level[v] == levels-1 {
				if d := b.g.Ptr[v+1] - b.g.Ptr[v]; d < farDeg {
					far, farDeg = v, d
				}
			}
		}
		src = far
	}
	// Restore membership marks for the caller's generation.
	for _, v := range verts {
		b.gen[v] = gen
	}
	return src
}

// components returns the connected components of the marked vertex set.
func (b *builder) components(verts []int, gen int) [][]int {
	b.curGen++
	vis := b.curGen
	var comps [][]int
	for _, s := range verts {
		if b.gen[s] != gen {
			continue
		}
		comp := []int{s}
		b.gen[s] = vis
		for head := 0; head < len(comp); head++ {
			v := comp[head]
			for _, w := range b.g.Adj[b.g.Ptr[v]:b.g.Ptr[v+1]] {
				if b.gen[w] == gen {
					b.gen[w] = vis
					comp = append(comp, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Restore marks.
	for _, v := range verts {
		b.gen[v] = gen
	}
	return comps
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
