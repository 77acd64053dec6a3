package nd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func grid2D(k int) *sparse.CSC {
	n := k * k
	coo := sparse.NewCOO(n, n, 5*n)
	id := func(i, j int) int { return i*k + j }
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := id(i, j)
			coo.Add(v, v, 4)
			if i > 0 {
				coo.Add(v, id(i-1, j), -1)
			}
			if i < k-1 {
				coo.Add(v, id(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(v, id(i, j-1), -1)
			}
			if j < k-1 {
				coo.Add(v, id(i, j+1), -1)
			}
		}
	}
	return coo.ToCSC(false)
}

// checkTreeStructure verifies that the permuted matrix only has entries
// between blocks that are on a common ancestor path in the ND tree.
func checkTreeStructure(t *testing.T, a *sparse.CSC, tree *Tree) {
	t.Helper()
	n := a.N
	blockOf := make([]int, n)
	for bidx := 0; bidx < tree.NumBlocks(); bidx++ {
		for i := tree.BlockPtr[bidx]; i < tree.BlockPtr[bidx+1]; i++ {
			blockOf[i] = bidx
		}
	}
	isAncestor := func(anc, node int) bool {
		for node != -1 {
			if node == anc {
				return true
			}
			node = tree.Parent[node]
		}
		return false
	}
	b := a.Permute(tree.Perm, tree.Perm)
	for j := 0; j < n; j++ {
		for p := b.Colptr[j]; p < b.Colptr[j+1]; p++ {
			i := b.Rowidx[p]
			bi, bj := blockOf[i], blockOf[j]
			if !isAncestor(bi, bj) && !isAncestor(bj, bi) {
				t.Fatalf("entry (%d,%d) couples unrelated blocks %d and %d", i, j, bi, bj)
			}
		}
	}
}

func TestGridDissection(t *testing.T) {
	for _, leaves := range []int{1, 2, 4, 8} {
		a := grid2D(12)
		tree, err := Compute(a, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if tree.NumBlocks() != 2*leaves-1 {
			t.Fatalf("leaves=%d: blocks = %d, want %d", leaves, tree.NumBlocks(), 2*leaves-1)
		}
		if !sparse.IsPerm(tree.Perm) {
			t.Fatalf("leaves=%d: not a permutation", leaves)
		}
		if len(tree.Leaves) != leaves {
			t.Fatalf("leaves=%d: Leaves list has %d entries", leaves, len(tree.Leaves))
		}
		checkTreeStructure(t, a, tree)
	}
}

func TestGridBalance(t *testing.T) {
	a := grid2D(16)
	tree, err := Compute(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 16 * 16
	// Each leaf should hold a reasonable share; separators should be small
	// relative to the matrix (O(k) for a k×k grid).
	for _, leaf := range tree.Leaves {
		size := tree.BlockSize(leaf)
		if size < n/16 {
			t.Errorf("leaf %d too small: %d of %d", leaf, size, n)
		}
	}
	sepTotal := 0
	for b := 0; b < tree.NumBlocks(); b++ {
		if tree.Height[b] > 0 {
			sepTotal += tree.BlockSize(b)
		}
	}
	if sepTotal > n/3 {
		t.Errorf("separators hold %d of %d vertices, too many", sepTotal, n)
	}
}

func TestPathToRootAndHeights(t *testing.T) {
	a := grid2D(10)
	tree, err := Compute(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.NumBlocks() - 1
	if tree.Parent[root] != -1 {
		t.Fatal("last block should be the root separator")
	}
	for _, leaf := range tree.Leaves {
		var path []int
		for b := leaf; b != -1; b = tree.Parent[b] {
			path = append(path, b)
		}
		if len(path) != 3 { // leaf, level-1 sep, root for 4 leaves
			t.Fatalf("path from leaf %d has length %d, want 3", leaf, len(path))
		}
		if path[len(path)-1] != root {
			t.Fatal("path should end at root")
		}
		if tree.Height[leaf] != 0 {
			t.Fatal("leaf height must be 0")
		}
	}
	if tree.Height[root] != 2 {
		t.Fatalf("root height = %d, want 2", tree.Height[root])
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two disjoint 5-cliques: bisection should need no separator.
	coo := sparse.NewCOO(10, 10, 50)
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a != b {
				coo.Add(a, b, 1)
				coo.Add(5+a, 5+b, 1)
			}
		}
	}
	a := coo.ToCSC(false)
	tree, err := Compute(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.IsPerm(tree.Perm) {
		t.Fatal("not a permutation")
	}
	root := tree.NumBlocks() - 1
	if tree.BlockSize(root) != 0 {
		t.Errorf("disconnected graph should have empty root separator, got %d", tree.BlockSize(root))
	}
	checkTreeStructure(t, a, tree)
}

func TestErrors(t *testing.T) {
	a := grid2D(4)
	if _, err := Compute(a, 3); err == nil {
		t.Fatal("non power-of-two leaves should error")
	}
	rect := sparse.NewCSC(3, 4, 0)
	if _, err := Compute(rect, 2); err == nil {
		t.Fatal("rectangular matrix should error")
	}
}

func TestRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(120)
		coo := sparse.NewCOO(n, n, 6*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			coo.Add(i, j, 1)
			coo.Add(j, i, 1)
		}
		a := coo.ToCSC(false)
		leaves := 1 << rng.Intn(3)
		tree, err := Compute(a, leaves)
		if err != nil {
			return false
		}
		if !sparse.IsPerm(tree.Perm) {
			return false
		}
		if tree.BlockPtr[tree.NumBlocks()] != n {
			return false
		}
		// Structure check without *testing.T plumbing.
		blockOf := make([]int, n)
		for bidx := 0; bidx < tree.NumBlocks(); bidx++ {
			for i := tree.BlockPtr[bidx]; i < tree.BlockPtr[bidx+1]; i++ {
				blockOf[i] = bidx
			}
		}
		isAncestor := func(anc, node int) bool {
			for node != -1 {
				if node == anc {
					return true
				}
				node = tree.Parent[node]
			}
			return false
		}
		b := a.Permute(tree.Perm, tree.Perm)
		for j := 0; j < n; j++ {
			for p := b.Colptr[j]; p < b.Colptr[j+1]; p++ {
				bi, bj := blockOf[b.Rowidx[p]], blockOf[j]
				if !isAncestor(bi, bj) && !isAncestor(bj, bi) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleLeaf(t *testing.T) {
	a := grid2D(5)
	tree, err := Compute(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumBlocks() != 1 || tree.BlockSize(0) != 25 {
		t.Fatalf("single-leaf tree wrong: %+v", tree.BlockPtr)
	}
}
