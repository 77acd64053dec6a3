package amd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// grid2D builds the 5-point stencil adjacency of a k×k grid (pattern only,
// symmetric, with diagonal).
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

func pathGraph(n int) *sparse.CSC {
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

func starGraph(n int) *sparse.CSC {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	for i := 1; i < n; i++ {
		coo.Add(0, i, 1)
		coo.Add(i, 0, 1)
	}
	return coo.ToCSC(false)
}

// symbolicFill counts fill edges created by eliminating the symmetric graph
// of a in the order perm (new-to-old).
func symbolicFill(a *sparse.CSC, perm []int) int {
	var g sparse.SymGraph
	g.Build(a, 0, a.N, nil)
	n := g.N
	adj := make([]map[int]bool, n)
	for j := 0; j < n; j++ {
		adj[j] = map[int]bool{}
	}
	for j := 0; j < n; j++ {
		for _, i := range g.Adj[g.Ptr[j]:g.Ptr[j+1]] {
			adj[j][i] = true
		}
	}
	pos := make([]int, n)
	for k, v := range perm {
		pos[v] = k
	}
	fill := 0
	for k := 0; k < n; k++ {
		v := perm[k]
		nbrs := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			if pos[u] > k {
				nbrs = append(nbrs, u)
			}
		}
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				u, w := nbrs[x], nbrs[y]
				if !adj[u][w] {
					adj[u][w] = true
					adj[w][u] = true
					fill++
				}
			}
		}
	}
	return fill
}

func TestOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		coo := sparse.NewCOO(n, n, 4*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
		for e := 0; e < 3*n; e++ {
			coo.Add(rng.Intn(n), rng.Intn(n), 1)
		}
		p := Order(coo.ToCSC(false))
		return sparse.IsPerm(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPathGraphZeroFill(t *testing.T) {
	a := pathGraph(50)
	p := Order(a)
	if !sparse.IsPerm(p) {
		t.Fatal("not a permutation")
	}
	if fill := symbolicFill(a, p); fill != 0 {
		t.Fatalf("path graph AMD fill = %d, want 0", fill)
	}
}

func TestStarGraphZeroFill(t *testing.T) {
	a := starGraph(40)
	p := Order(a)
	if fill := symbolicFill(a, p); fill != 0 {
		t.Fatalf("star graph AMD fill = %d, want 0 (leaves first)", fill)
	}
	// The hub must be among the last two eliminated (it ties with the final
	// leaf at degree 1 once all other leaves are gone).
	if idx := indexOf(p, 0); idx < len(p)-2 {
		t.Fatalf("hub ordered at %d of %d, want one of the last two", idx, len(p))
	}
}

func indexOf(p []int, v int) int {
	for i, x := range p {
		if x == v {
			return i
		}
	}
	return -1
}

func TestGridFillBeatsNatural(t *testing.T) {
	for _, k := range []int{8, 12, 16} {
		a := grid2D(k)
		p := Order(a)
		if !sparse.IsPerm(p) {
			t.Fatal("not a permutation")
		}
		amdFill := symbolicFill(a, p)
		natFill := symbolicFill(a, sparse.IdentityPerm(k*k))
		if amdFill >= natFill {
			t.Fatalf("k=%d: AMD fill %d >= natural fill %d", k, amdFill, natFill)
		}
		t.Logf("k=%d: AMD fill %d vs natural %d", k, amdFill, natFill)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	// Two disjoint triangles plus isolated vertices.
	coo := sparse.NewCOO(8, 8, 20)
	tri := func(a, b, c int) {
		coo.Add(a, b, 1)
		coo.Add(b, a, 1)
		coo.Add(b, c, 1)
		coo.Add(c, b, 1)
		coo.Add(a, c, 1)
		coo.Add(c, a, 1)
	}
	tri(0, 1, 2)
	tri(3, 4, 5)
	p := Order(coo.ToCSC(false))
	if !sparse.IsPerm(p) {
		t.Fatal("not a permutation")
	}
}

func TestTinyInputs(t *testing.T) {
	if p := Order(sparse.NewCSC(0, 0, 0)); len(p) != 0 {
		t.Fatal("empty matrix should give empty perm")
	}
	one := sparse.NewCOO(1, 1, 1)
	one.Add(0, 0, 5)
	if p := Order(one.ToCSC(false)); len(p) != 1 || p[0] != 0 {
		t.Fatalf("1×1 perm = %v", p)
	}
}

func TestDenseBlockOrder(t *testing.T) {
	// Fully dense graph: any order works, fill must be 0 extra beyond the
	// clique (already complete).
	n := 12
	coo := sparse.NewCOO(n, n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coo.Add(i, j, 1)
		}
	}
	a := coo.ToCSC(false)
	p := Order(a)
	if !sparse.IsPerm(p) {
		t.Fatal("not a permutation")
	}
	if fill := symbolicFill(a, p); fill != 0 {
		t.Fatalf("complete graph fill = %d, want 0", fill)
	}
}

// TestWorkspaceReuseMatchesFresh orders blocks of growing and shrinking
// size through one workspace: each result must equal the order a fresh
// workspace computes, i.e. nothing of a previous block survives in the
// reused scratch.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ws Workspace
	var g sparse.SymGraph
	for trial := 0; trial < 60; trial++ {
		var a *sparse.CSC
		switch trial % 4 {
		case 0:
			a = grid2D(2 + rng.Intn(12))
		case 1:
			a = starGraph(1 + rng.Intn(40))
		case 2:
			a = pathGraph(1 + rng.Intn(5))
		default:
			n := 1 + rng.Intn(80)
			coo := sparse.NewCOO(n, n, 4*n)
			for e := 0; e < 3*n; e++ {
				coo.Add(rng.Intn(n), rng.Intn(n), 1)
			}
			a = coo.ToCSC(false)
		}
		g.Build(a, 0, a.N, nil)
		got := ws.Order(&g)
		want := Order(a)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, fresh %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: reused workspace order differs from fresh at %d: %d vs %d", trial, k, got[k], want[k])
			}
		}
	}
}
