package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// assertScaledFactors checks got's factors against ref's under a
// power-of-two column scaling: every L value (diagonal blocks and fine-ND
// couplings) keeps its bits, and every U column (diagonal blocks and upper
// couplings) is ref's column times one power of two, bit for bit. The
// solve checks tie each factor to its d_j. Scaling commutes with rounding
// only away from the subnormal range: a value below 2^-900 on both sides
// may have absorbed an underflowed intermediate (the fill-heavy grid3d
// pattern decays to 1e-307), so it is exempt; an underflow cannot move a
// larger value's bits.
func assertScaledFactors(t *testing.T, where string, ref, got *Numeric) {
	t.Helper()
	same := func(want, have float64) bool {
		return math.Float64bits(want) == math.Float64bits(have) ||
			math.Abs(want) < 0x1p-900 && math.Abs(have) < 0x1p-900
	}
	var refL, gotL, refU, gotU []*sparse.CSC
	collect := func(num *Numeric, l, u *[]*sparse.CSC) {
		for _, f := range diagFactors(num) {
			*l, *u = append(*l, f.L), append(*u, f.U)
		}
		for _, ndn := range num.nd {
			if ndn == nil {
				continue
			}
			for i := range ndn.lower {
				for j := range ndn.lower[i] {
					if c := ndn.lower[i][j]; c != nil {
						*l = append(*l, c)
					}
					if c := ndn.upper[i][j]; c != nil {
						*u = append(*u, c)
					}
				}
			}
		}
	}
	collect(ref, &refL, &refU)
	collect(got, &gotL, &gotU)
	if len(refL) != len(gotL) || len(refU) != len(gotU) {
		t.Fatalf("%s: %d/%d L and %d/%d U matrices", where, len(gotL), len(refL), len(gotU), len(refU))
	}
	for k, r := range refL {
		g := gotL[k]
		if !slices.Equal(r.Colptr, g.Colptr) || !slices.Equal(r.Rowidx, g.Rowidx) {
			t.Fatalf("%s: L matrix %d changed pattern", where, k)
		}
		for p, v := range r.Values {
			if !same(v, g.Values[p]) {
				t.Fatalf("%s: L matrix %d entry %d = %g, unscaled %g", where, k, p, g.Values[p], v)
			}
		}
	}
	for k, r := range refU {
		g := gotU[k]
		if !slices.Equal(r.Colptr, g.Colptr) || !slices.Equal(r.Rowidx, g.Rowidx) {
			t.Fatalf("%s: U matrix %d changed pattern", where, k)
		}
		for j := 0; j < r.N; j++ {
			p0, p1 := r.Colptr[j], r.Colptr[j+1]
			s := 0.0
			for p := p1 - 1; p >= p0 && s == 0; p-- {
				if math.Abs(r.Values[p]) >= 0x1p-900 {
					s = g.Values[p] / r.Values[p]
				}
			}
			if frac, _ := math.Frexp(s); s != 0 && frac != 0.5 {
				t.Fatalf("%s: U matrix %d column %d scales by %g, not a power of two", where, k, j, s)
			}
			for p := p0; p < p1; p++ {
				if s != 0 && !same(r.Values[p]*s, g.Values[p]) {
					t.Fatalf("%s: U matrix %d column %d entry %d = %g, want %g·%g", where, k, j, p, g.Values[p], r.Values[p], s)
				}
			}
		}
	}
}

// TestScalingOracle is the reference-free check of every factor path: with
// D a power-of-two column scaling, every pivot comparison of A·D scales both
// sides by the same power of two and every product is exact, so with one
// Symbolic the factors of A·D are those of A with U(:,j) times d[j], and the
// solutions obey x(A·D)·d == x(A) and xᵀ(A·D, b) == xᵀ(A, D⁻¹b) bit for bit.
// It checks both after Factor and after FactorInto on a numeric first
// factored with A (there also the factors themselves, assertScaledFactors),
// after a full-restamp Refactor and after a Refactor that goes partial,
// over transposeInputs (the factor golden inputs and row-scaled copies that
// pivot off the diagonal) at Threads 1, 2 and 4 — no twin and no golden, so
// it holds across any rewrite that keeps the arithmetic exact under scaling.
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
			check := func(step string, scaled *Numeric) {
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
			check("Factor", scaled)
			assertScaledFactors(t, fmt.Sprintf("%s/T%d Factor", name, threads), ref, scaled)
			// FactorInto re-pivots a numeric first factored with A: the
			// same pivots, so L keeps its bits and U(:,j) scales by d_j.
			into, err := Factor(a, sym)
			if err != nil {
				t.Fatal(err)
			}
			if err := into.FactorInto(scaleColumns(a, d)); err != nil {
				t.Fatal(err)
			}
			assertScaledFactors(t, fmt.Sprintf("%s/T%d FactorInto", name, threads), ref, into)
			check("FactorInto", into)
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
				check(step.name, scaled)
			}
		}
	}
}
