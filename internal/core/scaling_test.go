package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// scaleColumns returns a·D for D = diag(d): column j times d[j].
func scaleColumns(a *sparse.CSC, d []float64) *sparse.CSC {
	ad := a.Clone()
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			ad.Values[p] = a.Values[p] * d[j]
		}
	}
	return ad
}

// TestScalingOracle is the reference-free check of every factor path: with
// D a power-of-two column scaling, every pivot comparison of A·D scales both
// sides by the same power of two and every product is exact, so with one
// Symbolic the factors of A·D are those of A with U(:,j) times d[j], and the
// solutions obey x(A·D)·d == x(A) and xᵀ(A·D, b) == xᵀ(A, D⁻¹b) bit for bit.
// It checks both after Factor, after a full-restamp Refactor and after a
// Refactor that goes partial, over transposeInputs (the factor golden inputs
// and row-scaled copies that pivot off the diagonal) at Threads 1, 2 and 4 —
// no twin and no golden, so it holds across any rewrite that keeps the
// arithmetic exact under scaling.
func TestScalingOracle(t *testing.T) {
	for name, a := range transposeInputs() {
		rng := rand.New(rand.NewSource(int64(a.N)))
		d := make([]float64, a.N)
		for j := range d {
			d[j] = math.Ldexp(1, rng.Intn(17)-8)
		}
		b := transposeRHS(a.N)
		restamp := matgen.TransientStep(a, 1, 5)
		local := matgen.PerturbColumns(restamp, matgen.ChangeSet(a.N, 0.05, 7, true), 2, 9)
		for _, threads := range []int{1, 2, 4} {
			opts := DefaultOptions()
			opts.Threads = threads
			sym, err := Analyze(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Factor(a, sym)
			if err != nil {
				t.Fatal(err)
			}
			scaled, err := Factor(scaleColumns(a, d), sym)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string) {
				t.Helper()
				where := fmt.Sprintf("%s/T%d after %s", name, threads, step)
				x, xs := append([]float64(nil), b...), append([]float64(nil), b...)
				ref.Solve(x)
				scaled.Solve(xs)
				for j := range x {
					if math.Float64bits(xs[j]*d[j]) != math.Float64bits(x[j]) {
						t.Fatalf("%s: x(A·D)[%d]·d = %g, x(A)[%d] = %g", where, j, xs[j]*d[j], j, x[j])
					}
				}
				for j := range x {
					x[j], xs[j] = b[j]/d[j], b[j]
				}
				ref.SolveTransposeInto(x, make([]float64, a.N))
				scaled.SolveTransposeInto(xs, make([]float64, a.N))
				for i := range x {
					if math.Float64bits(xs[i]) != math.Float64bits(x[i]) {
						t.Fatalf("%s: xᵀ(A·D, b)[%d] = %g, xᵀ(A, D⁻¹b)[%d] = %g", where, i, xs[i], i, x[i])
					}
				}
			}
			check("Factor")
			for _, step := range []struct {
				name    string
				m       *sparse.CSC
				partial bool
			}{{"full-restamp Refactor", restamp, false}, {"partial Refactor", local, true}} {
				d0, s0 := ref.DirtyBlocksTotal(), scaled.DirtyBlocksTotal()
				if err := ref.Refactor(step.m); err != nil {
					t.Fatal(err)
				}
				if err := scaled.Refactor(scaleColumns(step.m, d)); err != nil {
					t.Fatal(err)
				}
				if went := ref.DirtyBlocksTotal() > d0; went != step.partial || scaled.DirtyBlocksTotal() > s0 != went {
					t.Fatalf("%s/T%d: %s went partial: %v and %v", name, threads, step.name, went, scaled.DirtyBlocksTotal() > s0)
				}
				check(step.name)
			}
		}
	}
}
