package trisolve

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// panelMatrix is one input of the panel tests: a matgen class with the rows
// in many small BTF blocks, in one fine-ND block or split between them.
type panelMatrix struct {
	name          string
	a             *sparse.CSC
	minBlocks, nd int // coarse BTF blocks at least, fine-ND blocks exactly
}

// panelMatrices are the inputs of TestPanelGolden and TestSolveGolden,
// factored with Options.BigBlockMin = 32.
func panelMatrices() []panelMatrix {
	circuit := func(btfPct float64, blocks int, kind matgen.CoreKind, seed int64) *sparse.CSC {
		return matgen.Circuit(matgen.CircuitParams{N: 500, BTFPct: btfPct, Blocks: blocks, Core: kind, ExtraDensity: 0.3, Seed: seed})
	}
	return []panelMatrix{
		{"ladder/btf", circuit(100, 60, matgen.CoreLadder, 1), 60, 0},
		{"ladder/nd", circuit(0, 1, matgen.CoreLadder, 2), 1, 1},
		{"ladder/mixed", circuit(40, 30, matgen.CoreLadder, 3), 30, 1},
		{"grid/nd", circuit(0, 1, matgen.CoreGrid, 4), 1, 1},
		{"grid/mixed", circuit(30, 20, matgen.CoreGrid, 5), 20, 1},
		{"grid3d/nd", circuit(0, 1, matgen.CoreGrid3D, 6), 1, 1},
		{"grid3d/mixed", circuit(50, 40, matgen.CoreGrid3D, 7), 40, 1},
		{"mesh2d", matgen.Mesh2D(20, 8), 1, 1},
		{"mesh3d", matgen.Mesh3D(7, 9), 1, 1},
		{"powergrid", matgen.PowerGrid(500, 25, 10), 20, 0},
	}
}

// TestPanelGolden pins the row-interleaved panel sweep to the per-vector
// solve: on every matgen class, with the rows in many small BTF blocks, in
// one fine-ND block or split between them, factored serially and by four
// threads, SolveMany and SolveMatrix must agree with Solve component-wise
// (==) for batch sizes on both sides of every panel boundary.
func TestPanelGolden(t *testing.T) {
	const maxK = 67
	for _, m := range panelMatrices() {
		n := m.a.N
		// Dense vectors with one all-zero right-hand side, and vectors that
		// are all zero on the same leading 70 % of the rows, so whole panel
		// rows are zero and the all-lanes-zero column skip runs.
		dense := make([][]float64, maxK)
		prefix := make([][]float64, maxK)
		for c := range dense {
			dense[c] = randRHS(n, int64(c))
			prefix[c] = randRHS(n, int64(100+c))
			clear(prefix[c][:n*7/10])
		}
		clear(dense[1])
		for _, threads := range []int{1, 4} {
			opts := core.DefaultOptions()
			opts.Threads = threads
			opts.BigBlockMin = 32
			num, err := core.FactorDirect(m.a, opts)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if nb, nd := num.Sym.NumBlocks(), num.Sym.NumNDBlocks(); nb < m.minBlocks || nd != m.nd {
				t.Fatalf("%s: %d coarse blocks, %d fine-ND: not the structure this row is for", m.name, nb, nd)
			}
			for _, workers := range []int{1, 4} {
				s := New(num, Options{Workers: workers})
				for _, rhs := range []struct {
					name string
					bs   [][]float64
				}{{"dense", dense}, {"zero-prefix", prefix}} {
					want := cloneVecs(rhs.bs)
					for _, w := range want {
						if err := s.Solve(w); err != nil {
							t.Fatal(err)
						}
					}
					for _, k := range []int{1, 2, 7, 8, 9, 16, 17, 33, 67} {
						name := fmt.Sprintf("%s/threads=%d/workers=%d/%s/k=%d", m.name, threads, workers, rhs.name, k)
						many := cloneVecs(rhs.bs[:k])
						mat := slices.Concat(many...)
						if err := s.SolveMany(many); err != nil {
							t.Fatalf("%s: SolveMany: %v", name, err)
						}
						if err := s.SolveMatrix(mat, k); err != nil {
							t.Fatalf("%s: SolveMatrix: %v", name, err)
						}
						for c := range many {
							for i, w := range want[c] {
								if many[c][i] != w {
									t.Fatalf("%s: SolveMany rhs %d row %d: %v != %v", name, c, i, many[c][i], w)
								}
								if mat[c*n+i] != w {
									t.Fatalf("%s: SolveMatrix rhs %d row %d: %v != %v", name, c, i, mat[c*n+i], w)
								}
							}
						}
					}
				}
			}
		}
	}
}
