package core

import (
	"math/rand"
	"testing"

	"repro/internal/etree"
	"repro/internal/order/nd"
	"repro/internal/sparse"
)

// buildNDFixture permutes a grid into ND form and returns the permuted
// matrix plus its symbolic structure.
func buildNDFixture(t *testing.T, k, leaves int) (*sparse.CSC, *ndSym) {
	t.Helper()
	a := grid2D(k)
	tree, err := nd.Compute(a, leaves)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Permute(tree.Perm, tree.Perm)
	return d, newNDSym(tree)
}

// leafCountsOf computes every leaf diagonal's column counts the slow way,
// from an extracted copy of the block.
func leafCountsOf(d *sparse.CSC, s *ndSym) [][]int {
	counts := make([][]int, s.nb)
	for _, leaf := range s.tree.Leaves {
		r0, r1 := s.blockRange(leaf)
		diag := d.ExtractBlock(r0, r1, r0, r1)
		counts[leaf] = etree.ColCounts(diag, etree.Symmetric(diag))
	}
	return counts
}

func TestEstimateNDBasicInvariants(t *testing.T) {
	d, s := buildNDFixture(t, 16, 4)
	est := estimateND(d, s, leafCountsOf(d, s), 4)
	for b := 0; b < s.nb; b++ {
		r0, r1 := s.blockRange(b)
		w := r1 - r0
		if w == 0 {
			continue
		}
		diag := d.ExtractBlock(r0, r1, r0, r1)
		if est.diagNnz[b] < diag.Nnz() {
			t.Errorf("block %d: diag estimate %d < input nnz %d", b, est.diagNnz[b], diag.Nnz())
		}
		if est.diagNnz[b] > 2*w*w+1 {
			t.Errorf("block %d: diag estimate %d exceeds 2·area %d", b, est.diagNnz[b], 2*w*w)
		}
	}
	// Off-diagonal estimates must be at least the input block nnz and at
	// most the block area.
	for j := 0; j < s.nb; j++ {
		c0, c1 := s.blockRange(j)
		for _, i := range s.ancestors[j] {
			a0, a1 := s.blockRange(i)
			low := d.ExtractBlock(a0, a1, c0, c1)
			if est.lowerNnz[i][j] > (a1-a0)*(c1-c0) {
				t.Errorf("lower (%d,%d) estimate exceeds area", i, j)
			}
			if low.Nnz() > 0 && est.lowerNnz[i][j] == 0 {
				t.Errorf("lower (%d,%d) estimate zero despite %d input entries", i, j, low.Nnz())
			}
		}
	}
}

func TestEstimatesReduceReallocation(t *testing.T) {
	// With estimates the numeric factorization must produce identical
	// results (they are capacity hints only).
	a := grid2D(14)
	opts := optsWithThreads(4)
	sym, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for blk, ns := range sym.ndsym {
		if ns == nil {
			continue
		}
		if ns.est == nil {
			t.Fatalf("block %d missing Algorithm 3 estimates", blk)
		}
	}
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, num, 1e-8)
}

func TestEstimateNDDeterministic(t *testing.T) {
	d, s := buildNDFixture(t, 12, 2)
	e1 := estimateND(d, s, leafCountsOf(d, s), 1)
	e2 := estimateND(d, s, leafCountsOf(d, s), 2)
	for b := range e1.diagNnz {
		if e1.diagNnz[b] != e2.diagNnz[b] {
			t.Fatal("estimates are not deterministic")
		}
	}
}

func TestSolveRefinedViaCore(t *testing.T) {
	// Exercise the refinement path indirectly: a tough matrix with small
	// pivot tolerance still solves to tight residual after refinement.
	rng := rand.New(rand.NewSource(77))
	a := randCircuit(rng, 300, 0.5)
	opts := optsWithThreads(2)
	opts.PivotTol = 0.0001
	num, err := FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, num, 1e-6)
}
