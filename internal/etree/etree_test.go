package etree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// tridiag returns a tridiagonal pattern: its etree is a path.
func tridiag(n int) *sparse.CSC {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	return coo.ToCSC(false)
}

func TestSymmetricEtreePath(t *testing.T) {
	a := tridiag(10)
	parent := Symmetric(a)
	for j := 0; j < 9; j++ {
		if parent[j] != j+1 {
			t.Fatalf("parent[%d] = %d, want %d", j, parent[j], j+1)
		}
	}
	if parent[9] != -1 {
		t.Fatalf("root parent = %d, want -1", parent[9])
	}
}

func TestSymmetricEtreeArrow(t *testing.T) {
	// Arrow matrix: every column connected to the last; etree is a star at
	// n-1 for the "borders last" pattern (each j's lowest fill ancestor is
	// n-1 directly).
	n := 8
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		coo.Add(n-1, i, 1)
		coo.Add(i, n-1, 1)
	}
	parent := Symmetric(coo.ToCSC(false))
	for j := 0; j < n-1; j++ {
		if parent[j] != n-1 {
			t.Fatalf("parent[%d] = %d, want %d", j, parent[j], n-1)
		}
	}
}

func TestPostorderIsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		// Random forest: parent[j] > j or -1.
		parent := make([]int, n)
		for j := 0; j < n; j++ {
			if j == n-1 || rng.Float64() < 0.2 {
				parent[j] = -1
			} else {
				parent[j] = j + 1 + rng.Intn(n-j-1)
			}
		}
		post := Postorder(parent)
		if !sparse.IsPerm(post) {
			return false
		}
		// Children must appear before parents.
		pos := make([]int, n)
		for k, v := range post {
			pos[v] = k
		}
		for j := 0; j < n; j++ {
			if parent[j] != -1 && pos[j] >= pos[parent[j]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestColCountsTridiag(t *testing.T) {
	a := tridiag(6)
	parent := Symmetric(a)
	counts := ColCounts(a, parent)
	// Tridiagonal Cholesky has 2 nonzeros per column except the last.
	for j := 0; j < 5; j++ {
		if counts[j] != 2 {
			t.Fatalf("count[%d] = %d, want 2", j, counts[j])
		}
	}
	if counts[5] != 1 {
		t.Fatalf("count[5] = %d, want 1", counts[5])
	}
}

func TestColCountsDense(t *testing.T) {
	n := 7
	coo := sparse.NewCOO(n, n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coo.Add(i, j, 1)
		}
	}
	a := coo.ToCSC(false)
	counts := ColCounts(a, Symmetric(a))
	for j := 0; j < n; j++ {
		if counts[j] != n-j {
			t.Fatalf("count[%d] = %d, want %d", j, counts[j], n-j)
		}
	}
}

func TestLevelSets(t *testing.T) {
	// Balanced binary tree of 7 nodes: 0,1,2,3 leaves? Build explicitly:
	// parent: 0->4, 1->4, 2->5, 3->5, 4->6, 5->6, 6 root.
	parent := []int{4, 4, 5, 5, 6, 6, -1}
	level, byLevel := LevelSets(parent)
	want := []int{0, 0, 0, 0, 1, 1, 2}
	for i := range want {
		if level[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, level[i], want[i])
		}
	}
	if len(byLevel) != 3 || len(byLevel[0]) != 4 || len(byLevel[2]) != 1 {
		t.Fatalf("byLevel shape wrong: %v", byLevel)
	}
}

func TestColEtreeRect(t *testing.T) {
	// Column etree of a bidiagonal rectangular matrix is a path.
	m, n := 6, 5
	coo := sparse.NewCOO(m, n, 2*n)
	for j := 0; j < n; j++ {
		coo.Add(j, j, 1)
		coo.Add(j+1, j, 1)
	}
	parent := ColEtree(coo.ToCSC(false))
	for j := 0; j < n-1; j++ {
		if parent[j] != j+1 {
			t.Fatalf("col etree parent[%d] = %d, want %d", j, parent[j], j+1)
		}
	}
}

// TestRelaxedSupernodesChain: a pure-chain etree (tridiagonal pattern)
// amalgamates into maxWidth-bounded runs regardless of the relax bound.
func TestRelaxedSupernodesChain(t *testing.T) {
	parent := Symmetric(tridiag(10)) // parent[j] = j+1
	xsup := RelaxedSupernodes(parent, nil, 1, 4)
	want := []int{0, 4, 8, 10}
	if len(xsup) != len(want) {
		t.Fatalf("xsup = %v, want %v", xsup, want)
	}
	for i, v := range want {
		if xsup[i] != v {
			t.Fatalf("xsup = %v, want %v", xsup, want)
		}
	}
	// Unbounded width: one supernode.
	xsup = RelaxedSupernodes(parent, nil, 1, 10)
	if len(xsup) != 2 || xsup[1] != 10 {
		t.Fatalf("xsup = %v, want [0 10]", xsup)
	}
}

// TestRelaxedSupernodesForest: with every column a root (no etree edges),
// relax=1 keeps singletons while a larger relax may still merge nothing —
// parents outside (k, e] never amalgamate.
func TestRelaxedSupernodesForest(t *testing.T) {
	parent := []int{-1, -1, -1, -1}
	for _, relax := range []int{1, 4} {
		xsup := RelaxedSupernodes(parent, nil, relax, 8)
		if len(xsup) != 5 {
			t.Fatalf("relax=%d: xsup = %v, want singletons", relax, xsup)
		}
		for i, v := range xsup {
			if v != i {
				t.Fatalf("relax=%d: xsup = %v, want singletons", relax, xsup)
			}
		}
	}
}

// TestRelaxedSupernodesRelaxMerges: small subtrees hanging off a chain merge
// only when the relax bound allows the non-chain run.
func TestRelaxedSupernodesRelaxMerges(t *testing.T) {
	// Columns 0 and 1 are siblings under 2, then 2→3→4.
	parent := []int{2, 2, 3, 4, -1}
	strict := RelaxedSupernodes(parent, nil, 1, 8)
	// relax=1: 0 cannot extend (parent[0]=2 breaks the chain at once and
	// non-chain runs are capped at the relax bound), so 0 stays a
	// singleton; 1→2→3→4 is a pure chain and merges.
	want := []int{0, 1, 5}
	if len(strict) != len(want) {
		t.Fatalf("strict xsup = %v, want %v", strict, want)
	}
	for i, v := range want {
		if strict[i] != v {
			t.Fatalf("strict xsup = %v, want %v", strict, want)
		}
	}
	relaxed := RelaxedSupernodes(parent, nil, 5, 8)
	if len(relaxed) != 2 || relaxed[1] != 5 {
		t.Fatalf("relaxed xsup = %v, want [0 5]", relaxed)
	}
}

// TestRelaxedSupernodesPaddingBound: with fill counts supplied, a pure
// chain with sparse columns (tridiagonal: two nonzeros per factor column)
// must NOT amalgamate into wide panels — the padded panel would inflate
// fill quadratically — while a dense trailing triangle (counts n-k, exactly
// the nested model) still merges to full width.
func TestRelaxedSupernodesPaddingBound(t *testing.T) {
	a := tridiag(12)
	parent := Symmetric(a)
	counts := ColCounts(a, parent)
	xsup := RelaxedSupernodes(parent, counts, 1, 8)
	for s := 0; s+1 < len(xsup); s++ {
		if w := xsup[s+1] - xsup[s]; w > 2 {
			t.Fatalf("tridiagonal chain merged into width-%d panel: %v", w, xsup)
		}
	}
	// Dense pattern: counts[k] = n-k, padded == actual, merges to maxWidth.
	n := 12
	dense := make([]int, n)
	chain := make([]int, n)
	for k := 0; k < n; k++ {
		dense[k] = n - k
		chain[k] = k + 1
	}
	chain[n-1] = -1
	xsup = RelaxedSupernodes(chain, dense, 1, 8)
	if len(xsup) != 3 || xsup[1] != 8 || xsup[2] != 12 {
		t.Fatalf("dense chain xsup = %v, want [0 8 12]", xsup)
	}
}

// TestRelaxedSupernodesPartitionInvariant: on random forests the result is
// always a monotone partition of 0..n covering every column, every run
// respects maxWidth, and every merged run keeps its parents inside (k, e]
// (the correctness invariant padding relies on).
func TestRelaxedSupernodesPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		parent := make([]int, n)
		for j := range parent {
			if rng.Intn(3) == 0 {
				parent[j] = -1
			} else {
				parent[j] = j + 1 + rng.Intn(n-j) // in (j, n]; n acts as a root
			}
			if parent[j] >= n {
				parent[j] = -1
			}
		}
		relax := 1 + rng.Intn(6)
		maxw := relax + rng.Intn(10)
		xsup := RelaxedSupernodes(parent, nil, relax, maxw)
		if xsup[0] != 0 || xsup[len(xsup)-1] != n {
			t.Fatalf("trial %d: partition %v does not cover 0..%d", trial, xsup, n)
		}
		for s := 0; s+1 < len(xsup); s++ {
			a, e := xsup[s], xsup[s+1]
			if e <= a || e-a > maxw {
				t.Fatalf("trial %d: bad run [%d,%d) with maxWidth %d", trial, a, e, maxw)
			}
			if e-a == 1 {
				continue
			}
			for k := a; k < e-1; k++ {
				if parent[k] <= k || parent[k] > e-1 {
					t.Fatalf("trial %d: run [%d,%d): parent[%d]=%d escapes the run",
						trial, a, e, k, parent[k])
				}
			}
		}
	}
}

// TestGraphKernelsUnderLabelling checks the workspace kernels against the
// definition they shortcut: the tree and counts of a graph relabelled by
// perm must equal those of the symmetrically permuted matrix, and a reused
// workspace must not carry anything from the previous (larger or smaller)
// block.
func TestGraphKernelsUnderLabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ws Workspace
	var g sparse.SymGraph
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(70)
		coo := sparse.NewCOO(n, n, 4*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
		for e := 0; e < 2*n; e++ {
			coo.Add(rng.Intn(n), rng.Intn(n), 1)
		}
		a := coo.ToCSC(false)
		var perm []int
		b := a
		if trial%3 != 0 {
			perm = rng.Perm(n)
			b = a.Permute(perm, perm)
		}
		wantParent := Symmetric(b)
		wantCounts := ColCounts(b, wantParent)
		g.Build(a, 0, n, nil)
		parent := ws.Symmetric(&g, perm)
		counts := ws.ColCounts(&g, perm, parent)
		for j := 0; j < n; j++ {
			if parent[j] != wantParent[j] || counts[j] != wantCounts[j] {
				t.Fatalf("trial %d col %d: parent %d count %d, permuted matrix gives %d and %d",
					trial, j, parent[j], counts[j], wantParent[j], wantCounts[j])
			}
		}
	}
}
