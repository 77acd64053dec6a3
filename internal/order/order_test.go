package order

import (
	"math/rand"
	"testing"

	"repro/internal/etree"
	"repro/internal/order/amd"
	"repro/internal/sparse"
)

// TestBlockMatchesCopyingPath holds Block to the path it replaced: extract
// the block, AMD-order the copy, permute the copy, and take the tree and
// counts of that — same composed permutations and estimate, through
// one workspace reused over blocks of every size.
func TestBlockMatchesCopyingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ws Workspace
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		coo := sparse.NewCOO(n, n, 5*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
		for e := 0; e < 3*n; e++ {
			coo.Add(rng.Intn(n), rng.Intn(n), 1)
		}
		b := coo.ToCSC(false)
		btfRow, btfCol := rng.Perm(n), rng.Perm(n)
		r0 := rng.Intn(n)
		r1 := r0 + 1 + rng.Intn(n-r0)
		rowPerm, colPerm := make([]int, n), make([]int, n)
		est := ws.Block(b, r0, r1, btfRow, btfCol, rowPerm, colPerm)

		wantEst := 1
		local := []int{0}
		if r1-r0 > 1 {
			sub := b.ExtractBlock(r0, r1, r0, r1)
			local = amd.Order(sub)
			ordered := sub.Permute(local, local)
			counts := etree.ColCounts(ordered, etree.Symmetric(ordered))
			wantEst = 0
			for _, c := range counts {
				wantEst += 2 * c
			}
		}
		if est != wantEst {
			t.Fatalf("trial %d block [%d,%d): est %d, copying path %d", trial, r0, r1, est, wantEst)
		}
		for k, v := range local {
			if rowPerm[r0+k] != btfRow[r0+v] || colPerm[r0+k] != btfCol[r0+v] {
				t.Fatalf("trial %d: composed permutation differs at %d", trial, k)
			}
		}
	}
}
