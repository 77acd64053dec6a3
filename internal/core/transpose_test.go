package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

const transposeGoldenPath = "testdata/transpose_golden.json"

// solveT solves Aᵀ x = b in place through num.
func solveT(num *Numeric, b []float64) {
	num.SolveTransposeInto(b, make([]float64, num.Sym.N))
}

// transposeRHS is the deterministic right-hand side of the transposed-solve
// pins: small integers of both signs, zeros and a −0 among them.
func transposeRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7)%11) - 5
		if i%13 == 4 {
			b[i] = math.Copysign(0, -1)
		}
	}
	return b
}

// rowScaled returns R·A for a seeded power-of-two row scaling R. The
// diagonal then no longer dominates its column, so the diagonal blocks
// pivot off the diagonal and the solves' pivot-order layout carries real
// row swaps (the unscaled suite pivots almost nowhere).
func rowScaled(a *sparse.CSC) *sparse.CSC {
	rng := rand.New(rand.NewSource(3))
	r := make([]float64, a.N)
	for i := range r {
		r[i] = math.Ldexp(1, rng.Intn(17)-8)
	}
	b := a.Clone()
	for p, i := range b.Rowidx[:b.Nnz()] {
		b.Values[p] *= r[i]
	}
	return b
}

// transposeInputs are the factor golden inputs plus a row-scaled copy of
// each Table I matrix.
func transposeInputs() map[string]*sparse.CSC {
	out := factorGoldenInputs()
	for _, m := range matgen.TableISuite(0.25) {
		out["rowscaled/"+m.Name] = rowScaled(m.Gen())
	}
	return out
}

// floatsHash is an FNV-64a over the IEEE bits of v.
func floatsHash(v ...float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// transposeDigests factors a, solves Aᵀ x = b and estimates rcond, then
// does both again after a full Refactor on a transient restamp.
func transposeDigests(t *testing.T, a *sparse.CSC, threads int) map[string]string {
	t.Helper()
	sym, err := Analyze(a, optsWithThreads(threads))
	if err != nil {
		t.Fatal(err)
	}
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	g := map[string]string{}
	digest := func(step string) {
		x := transposeRHS(a.N)
		solveT(num, x)
		g[step+"/SolveTransposeInto"] = floatsHash(x...)
		g[step+"/EstimateRcond"] = floatsHash(num.EstimateRcond())
	}
	digest("Factor")
	if err := num.Refactor(matgen.TransientStep(a, 1, 5)); err != nil {
		t.Fatal(err)
	}
	digest("Refactor")
	return g
}

// TestSolveTransposeGolden pins the bits of SolveTransposeInto's solutions
// and of EstimateRcond after Factor and after a full Refactor, at one, two
// and four threads, over transposeInputs, against
// testdata/transpose_golden.json. A change of the
// transposed solve's layout must not move a bit; a deliberate change of its
// arithmetic re-records the file with -update-golden.
func TestSolveTransposeGolden(t *testing.T) {
	got := map[string]map[string]string{}
	for name, a := range transposeInputs() {
		for _, threads := range []int{1, 2, 4} {
			got[fmt.Sprintf("%s/T%d", name, threads)] = transposeDigests(t, a, threads)
		}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transposeGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(transposeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the solves produced %d", len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d fields, golden %d", name, len(g), len(w))
		}
		for field, wh := range w {
			if g[field] != wh {
				t.Errorf("%s: %s = %s, golden %s", name, field, g[field], wh)
			}
		}
	}
}

// TestSolveTransposeResidual checks ‖Aᵀx − b‖∞ / (‖A‖₁‖x‖∞ + ‖b‖∞) of the
// transposed solve over the Table I suite and its row-scaled copies, whose
// diagonal blocks pivot off the diagonal, serially and at four threads.
func TestSolveTransposeResidual(t *testing.T) {
	for _, m := range matgen.TableISuite(0.25) {
		for _, a := range []*sparse.CSC{m.Gen(), rowScaled(m.Gen())} {
			for _, threads := range []int{1, 4} {
				num, err := FactorDirect(a, optsWithThreads(threads))
				if err != nil {
					t.Fatalf("%s T%d: %v", m.Name, threads, err)
				}
				b := transposeRHS(a.N)
				x := append([]float64(nil), b...)
				solveT(num, x)
				res, xmax, bmax := 0.0, 0.0, 0.0
				for j := 0; j < a.N; j++ {
					s := 0.0
					for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
						s += a.Values[p] * x[a.Rowidx[p]]
					}
					res = math.Max(res, math.Abs(s-b[j]))
					xmax = math.Max(xmax, math.Abs(x[j]))
					bmax = math.Max(bmax, math.Abs(b[j]))
				}
				if rel := res / (num.Norm1()*xmax + bmax); !(rel <= 1e-12) {
					t.Errorf("%s T%d: relative transposed residual %.3g", m.Name, threads, rel)
				}
			}
		}
	}
}

// TestEstimateRcondSafeguard pins the alternating-sign safeguard of
// EstimateRcond on a matrix where it decides the estimate: on
//
//	⎡−2  0  0⎤
//	⎢ 0 −3  4⎥
//	⎣ 0 −2  4⎦
//
// the power iteration stops below 2/5 of the exact ‖A⁻¹‖₁ = 7/4, and only
// the safeguard's probe (≈ 0.79 of it) brings the estimate within a factor
// of two. The exact norm comes from n solves of the unit vectors; both
// probes are lower bounds, so the estimate must not exceed it either.
func TestEstimateRcondSafeguard(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 5)
	for _, e := range [][3]float64{{0, 0, -2}, {1, 1, -3}, {1, 2, 4}, {2, 1, -2}, {2, 2, 4}} {
		coo.Add(int(e[0]), int(e[1]), e[2])
	}
	a := coo.ToCSC(true)
	sym, err := Analyze(a, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	exact, y := 0.0, make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		e := make([]float64, a.N)
		e[j] = 1
		num.SolveInto(e, y)
		s := 0.0
		for _, v := range e {
			s += math.Abs(v)
		}
		exact = math.Max(exact, s)
	}
	est := 1 / (num.Norm1() * num.EstimateRcond())
	if est < exact/2 || est > exact*(1+1e-12) {
		t.Fatalf("estimated ‖A⁻¹‖₁ = %v, exact %v: want within a factor of two below", est, exact)
	}
}
