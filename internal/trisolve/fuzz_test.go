package trisolve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// FuzzSolveMany pins the panel tails of SolveMany and SolveMatrix to the
// per-vector Solve: a random matgen class and size, factored at one or four
// threads, solved by one or four workers, with k in [1, 40] right-hand
// sides among which are all-zero vectors, vectors of −0 and lanes holding 0
// or −0 between dense ones. Every component must equal Solve's bit for bit,
// except that a component Solve leaves at ±0 may come back as the other
// zero — the documented panel contract: a zero lane is updated with ±0
// where the serial sweep skips it.
//
// Run the smoke locally with:
//
//	go test -run xxx -fuzz FuzzSolveMany -fuzztime=10s ./internal/trisolve
func FuzzSolveMany(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(200), uint8(0), uint8(9))
	f.Add(int64(2), uint8(1), uint16(300), uint8(1), uint8(8))
	f.Add(int64(3), uint8(2), uint16(150), uint8(2), uint8(17))
	f.Add(int64(4), uint8(3), uint16(40), uint8(3), uint8(1))
	f.Add(int64(5), uint8(4), uint16(90), uint8(1), uint8(40))
	f.Add(int64(6), uint8(5), uint16(400), uint8(2), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, class uint8, size uint16, par uint8, kSel uint8) {
		n := 32 + int(size)%400
		var a *sparse.CSC
		switch class % 6 {
		case 0, 1, 2:
			a = matgen.Circuit(matgen.CircuitParams{
				N: n, BTFPct: float64(int(seed%101+101) % 101), Blocks: 1 + n/30,
				Core: matgen.CoreKind(class % 3), ExtraDensity: 0.3, Seed: seed,
			})
		case 3:
			a = matgen.Mesh2D(4+n%20, seed)
		case 4:
			a = matgen.Mesh3D(3+n%6, seed)
		case 5:
			a = matgen.PowerGrid(n, 1+n/20, seed)
		}
		opts := core.DefaultOptions()
		opts.Threads = []int{1, 4}[par%2]
		opts.BigBlockMin = 32
		num, err := core.FactorDirect(a, opts)
		if err != nil {
			t.Skip() // singular draw; nothing to compare
		}
		s := New(num, Options{Workers: []int{1, 4}[par/2%2]})
		k := 1 + int(kSel)%40

		rng := rand.New(rand.NewSource(seed))
		negZero := math.Copysign(0, -1)
		rhs := make([][]float64, k)
		for c := range rhs {
			b := make([]float64, a.N)
			switch rng.Intn(4) {
			case 0: // all zero
			case 1: // all −0
				for i := range b {
					b[i] = negZero
				}
			default: // dense, with scattered +0 and −0
				for i := range b {
					switch rng.Intn(8) {
					case 0:
					case 1:
						b[i] = negZero
					default:
						b[i] = rng.NormFloat64()
					}
				}
			}
			rhs[c] = b
		}
		want := make([][]float64, k)
		for c := range rhs {
			want[c] = slices.Clone(rhs[c])
			if err := s.Solve(want[c]); err != nil {
				t.Fatal(err)
			}
			for _, v := range want[c] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Skip() // the panel contract is stated for finite solutions
				}
			}
		}
		many := make([][]float64, k)
		for c := range rhs {
			many[c] = slices.Clone(rhs[c])
		}
		if err := s.SolveMany(many); err != nil {
			t.Fatal(err)
		}
		mat := slices.Concat(rhs...)
		if err := s.SolveMatrix(mat, k); err != nil {
			t.Fatal(err)
		}
		same := func(got, w float64) bool {
			return math.Float64bits(got) == math.Float64bits(w) || (got == 0 && w == 0)
		}
		for c := range want {
			for i, w := range want[c] {
				if !same(many[c][i], w) {
					t.Fatalf("k=%d rhs %d row %d: SolveMany %v, Solve %v", k, c, i, many[c][i], w)
				}
				if got := mat[c*a.N+i]; !same(got, w) {
					t.Fatalf("k=%d rhs %d row %d: SolveMatrix %v, Solve %v", k, c, i, got, w)
				}
			}
		}
	})
}
