package sparse

import (
	"math/rand"
	"testing"
)

// SymbolicUnion and DropDiagonal are the value-carrying, transpose-based
// construction of A+Aᵀ every ordering kernel used to rebuild for itself.
// They survive here only as the oracle SymGraph.Build is checked against.
func (a *CSC) SymbolicUnion() *CSC {
	t := a.Transpose()
	n := a.N
	out := NewCSC(n, n, a.Nnz()*2)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			if mark[i] != j {
				mark[i] = j
				out.Rowidx = append(out.Rowidx, i)
				out.Values = append(out.Values, 1)
			}
		}
		for p := t.Colptr[j]; p < t.Colptr[j+1]; p++ {
			i := t.Rowidx[p]
			if mark[i] != j {
				mark[i] = j
				out.Rowidx = append(out.Rowidx, i)
				out.Values = append(out.Values, 1)
			}
		}
		out.Colptr[j+1] = len(out.Rowidx)
	}
	out.SortColumns()
	return out
}

func (a *CSC) DropDiagonal() *CSC {
	out := NewCSC(a.M, a.N, a.Nnz())
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if a.Rowidx[p] != j {
				out.Rowidx = append(out.Rowidx, a.Rowidx[p])
				out.Values = append(out.Values, a.Values[p])
			}
		}
		out.Colptr[j+1] = len(out.Rowidx)
	}
	return out
}

// checkSymGraph compares g with the oracle graph of block [c0, c1) of b
// under the row relabelling rowNew (nil = identity), entry for entry, and
// checks the structural contract on its own: ascending, symmetric,
// diagonal-free.
func checkSymGraph(t *testing.T, g *SymGraph, b *CSC, c0, c1 int, rowNew []int) {
	t.Helper()
	blk := b.ExtractBlock(c0, c1, c0, c1)
	if rowNew != nil {
		blk = blk.Permute(InversePerm(rowNew), nil)
	}
	want := blk.SymbolicUnion().DropDiagonal()
	n := c1 - c0
	if g.N != n || len(g.Ptr) != n+1 || len(g.Adj) != g.Ptr[n] {
		t.Fatalf("shape: N=%d len(Ptr)=%d len(Adj)=%d Ptr[N]=%d, block is %d", g.N, len(g.Ptr), len(g.Adj), g.Ptr[n], n)
	}
	for v := 0; v <= n; v++ {
		if g.Ptr[v] != want.Colptr[v] {
			t.Fatalf("Ptr[%d] = %d, oracle %d", v, g.Ptr[v], want.Colptr[v])
		}
	}
	for p, w := range want.Rowidx {
		if g.Adj[p] != w {
			t.Fatalf("Adj[%d] = %d, oracle %d", p, g.Adj[p], w)
		}
	}
	has := func(v, w int) bool {
		for _, x := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
			if x == w {
				return true
			}
		}
		return false
	}
	for v := 0; v < n; v++ {
		prev := -1
		for _, w := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
			if w <= prev {
				t.Fatalf("vertex %d: list not strictly ascending (%d after %d)", v, w, prev)
			}
			if w == v {
				t.Fatalf("vertex %d: self loop", v)
			}
			if !has(w, v) {
				t.Fatalf("edge (%d,%d) has no mirror", v, w)
			}
			prev = w
		}
	}
}

func fromEntries(n int, entries [][2]int) *CSC {
	coo := NewCOO(n, n, len(entries))
	for _, e := range entries {
		coo.Add(e[0], e[1], 1)
	}
	return coo.ToCSC(false)
}

func TestSymGraphAdversarialBlocks(t *testing.T) {
	denseRow := [][2]int{}
	for j := 0; j < 9; j++ {
		denseRow = append(denseRow, [2]int{4, j})
	}
	both := [][2]int{{0, 1}, {1, 0}, {2, 1}, {1, 2}, {3, 0}}
	cases := map[string]*CSC{
		"1x1":           fromEntries(1, [][2]int{{0, 0}}),
		"1x1 empty":     fromEntries(1, nil),
		"empty":         fromEntries(6, nil),
		"diagonal only": fromEntries(5, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}),
		"empty columns": fromEntries(6, [][2]int{{0, 3}, {5, 3}, {2, 2}}),
		"dense row":     fromEntries(9, denseRow),
		"both halves":   fromEntries(4, both),
	}
	var g SymGraph
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			g.Build(a, 0, a.N, nil)
			checkSymGraph(t, &g, a, 0, a.N, nil)
			rev := make([]int, a.N)
			for i := range rev {
				rev[i] = a.N - 1 - i
			}
			g.Build(a, 0, a.N, rev)
			checkSymGraph(t, &g, a, 0, a.N, rev)
		})
	}
}

// TestSymGraphMatchesOracle is the property test: random sub-ranges of
// random matrices, with and without a row relabelling, through one reused
// graph whose successive blocks shrink and grow — anything a previous block
// left in the buffers would show as an oracle mismatch.
func TestSymGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var g SymGraph
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		if trial%3 == 0 {
			n = 1 + rng.Intn(6)
		}
		a := randomCSC(rng, n, n, []float64{0.02, 0.1, 0.4}[trial%3])
		c0 := rng.Intn(n)
		c1 := c0 + 1 + rng.Intn(n-c0)
		var rowNew []int
		if trial%2 == 1 {
			rowNew = randomPerm(rng, c1-c0)
		}
		g.Build(a, c0, c1, rowNew)
		checkSymGraph(t, &g, a, c0, c1, rowNew)
	}
}

// TestSymGraphInduce checks the relabelled induced subgraph against the
// oracle graph of the same diagonal block of the symmetrically permuted
// matrix.
func TestSymGraphInduce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var g, sub SymGraph
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(50)
		a := randomCSC(rng, n, n, 0.15)
		perm := randomPerm(rng, n)
		b0 := rng.Intn(n)
		b1 := b0 + 1 + rng.Intn(n-b0)
		g.Build(a, 0, n, nil)
		sub.Induce(&g, perm[b0:b1])
		checkSymGraph(t, &sub, a.Permute(perm, perm), b0, b1, nil)
	}
}

// FuzzSymGraph decodes the fuzzer's bytes into a small square matrix, a
// sub-range and an optional row relabelling, and holds Build to the oracle.
//
//	go test -run xxx -fuzz FuzzSymGraph -fuzztime=10s ./internal/sparse
func FuzzSymGraph(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(1), int64(0), []byte{0})
	f.Add(uint8(6), uint8(1), uint8(4), int64(3), []byte{1, 7, 8, 13, 14, 35})
	f.Add(uint8(9), uint8(0), uint8(9), int64(0), []byte{36, 37, 38, 39, 40, 41, 42, 43, 44})
	f.Add(uint8(5), uint8(2), uint8(2), int64(-1), []byte{0, 6, 12, 18, 24})
	f.Fuzz(func(t *testing.T, nSel, lo, span uint8, permSeed int64, cells []byte) {
		n := 1 + int(nSel)%16
		coo := NewCOO(n, n, len(cells))
		for _, c := range cells {
			coo.Add(int(c)%(n*n)/n, int(c)%(n*n)%n, 1)
		}
		a := coo.ToCSC(false)
		c0 := int(lo) % n
		c1 := c0 + 1 + int(span)%(n-c0)
		var rowNew []int
		if permSeed != 0 {
			rowNew = rand.New(rand.NewSource(permSeed)).Perm(c1 - c0)
		}
		// A dirty workspace first: a larger unrelated block.
		var g SymGraph
		g.Build(a, 0, n, nil)
		g.Build(a, c0, c1, rowNew)
		checkSymGraph(t, &g, a, c0, c1, rowNew)
	})
}
