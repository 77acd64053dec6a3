package sparse

// SymGraph is the pattern-only adjacency structure of B+Bᵀ for a square
// block B: vertex v's neighbours are Adj[Ptr[v]:Ptr[v+1]], ascending, with
// no self loops and no duplicates. It is the one graph the per-block
// symbolic front end (AMD, nested dissection, elimination trees, column
// counts, supernode detection) is built on. A SymGraph is its own
// workspace: Build and Induce overwrite it in place and reuse its buffers,
// so a worker analyzing many blocks keeps one and allocates only while the
// blocks grow.
//
// Ascending adjacency lists are part of the contract: the tie-breaks of AMD
// and of the dissection's BFS follow list order.
type SymGraph struct {
	N   int
	Ptr []int // length N+1
	Adj []int // length Ptr[N]

	// raw holds the unordered, possibly duplicated half-edges of Build;
	// next is the per-vertex fill cursor of both builders; inv is Induce's
	// old-to-local map, all -1 between calls.
	raw, rawPtr, next, inv []int
}

// Nnz reports the number of stored half-edges (twice the edge count).
func (g *SymGraph) Nnz() int { return g.Ptr[g.N] }

// Build fills g with the graph of B+Bᵀ, where B is the diagonal block of b
// on rows and columns [c0, c1): entries of those columns whose row falls
// outside the range are skipped and the diagonal is dropped. A non-nil
// rowNew relabels the block's rows first — local row i becomes row
// rowNew[i], as a row permutation applied after extraction would — so the
// caller never materialises the extracted or the permuted block. b's values
// are not read and its columns need not be sorted.
//
// Lists come out ascending by construction rather than by sorting: every
// off-diagonal entry (i, v) is first recorded under both endpoints, then
// the vertices are walked in ascending order and each one is appended to
// its recorded neighbours' final lists. A pair present as both (i, v) and
// (v, i) arrives twice in a row at the same list and is dropped there.
func (g *SymGraph) Build(b *CSC, c0, c1 int, rowNew []int) {
	n := c1 - c0
	g.N = n
	g.rawPtr = GrowInts(g.rawPtr, n+1)
	g.next = GrowInts(g.next, n)
	g.Ptr = GrowInts(g.Ptr, n+1)
	cnt := g.next
	for v := range cnt {
		cnt[v] = 0
	}
	for v := 0; v < n; v++ {
		for p := b.Colptr[c0+v]; p < b.Colptr[c0+v+1]; p++ {
			if i := blockRow(b.Rowidx[p]-c0, n, rowNew); i >= 0 && i != v {
				cnt[i]++
				cnt[v]++
			}
		}
	}
	total := 0
	for v := 0; v < n; v++ {
		g.rawPtr[v] = total
		total += cnt[v]
		cnt[v] = g.rawPtr[v]
	}
	g.rawPtr[n] = total
	g.raw = GrowInts(g.raw, total)
	g.Adj = GrowInts(g.Adj, total)
	for v := 0; v < n; v++ {
		for p := b.Colptr[c0+v]; p < b.Colptr[c0+v+1]; p++ {
			if i := blockRow(b.Rowidx[p]-c0, n, rowNew); i >= 0 && i != v {
				g.raw[cnt[i]] = v
				cnt[i]++
				g.raw[cnt[v]] = i
				cnt[v]++
			}
		}
	}
	// Ordered fill into slots sized by the duplicate-counting bound...
	copy(cnt, g.rawPtr[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.raw[g.rawPtr[v]:g.rawPtr[v+1]] {
			if q := cnt[w]; q == g.rawPtr[w] || g.Adj[q-1] != v {
				g.Adj[q] = v
				cnt[w] = q + 1
			}
		}
	}
	// ...then closed up over the slots the duplicates left empty.
	out := 0
	for v := 0; v < n; v++ {
		g.Ptr[v] = out
		out += copy(g.Adj[out:], g.Adj[g.rawPtr[v]:cnt[v]])
	}
	g.Ptr[n] = out
	g.Adj = g.Adj[:out]
}

// blockRow maps block-local row i to its label in the graph, or -1 when the
// row lies outside the block.
func blockRow(i, n int, rowNew []int) int {
	if i < 0 || i >= n {
		return -1
	}
	if rowNew != nil {
		return rowNew[i]
	}
	return i
}

// Induce fills g with the subgraph of src induced on verts, relabelled so
// that verts[k] becomes vertex k — the graph of a diagonal block of the
// symmetrically permuted matrix, without forming the permutation. Lists are
// ascending in the new labels: vertices are walked in new order and
// appended to their neighbours' lists, which is exact because src is
// symmetric. g and src must be distinct.
func (g *SymGraph) Induce(src *SymGraph, verts []int) {
	n := len(verts)
	g.N = n
	g.Ptr = GrowInts(g.Ptr, n+1)
	g.next = GrowInts(g.next, n)
	if len(g.inv) < src.N {
		g.inv = make([]int, src.N)
		for i := range g.inv {
			g.inv[i] = -1
		}
	}
	inv := g.inv
	for k, v := range verts {
		inv[v] = k
	}
	total := 0
	for k, v := range verts {
		g.Ptr[k] = total
		for _, w := range src.Adj[src.Ptr[v]:src.Ptr[v+1]] {
			if inv[w] >= 0 {
				total++
			}
		}
		g.next[k] = g.Ptr[k]
	}
	g.Ptr[n] = total
	g.Adj = GrowInts(g.Adj, total)
	for k, v := range verts {
		for _, w := range src.Adj[src.Ptr[v]:src.Ptr[v+1]] {
			if l := inv[w]; l >= 0 {
				g.Adj[g.next[l]] = k
				g.next[l]++
			}
		}
	}
	for _, v := range verts {
		inv[v] = -1
	}
}
