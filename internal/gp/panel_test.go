package gp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/order/amd"
	"repro/internal/sparse"
)

// sweepCase is one factor both panel-sweep paths run on.
type sweepCase struct {
	name string
	f    *Factors
}

// sweepCases factors, after an AMD ordering, the ten matgen inputs of the
// solve's panel tests and a 5 000-row circuit, which crosses the kernels'
// column chunk and ends on a ragged one; then the shapes the kernels treat
// apart: N = 1, a diagonal matrix, and triangular matrices whose L or whose
// U columns are all diagonal-only; and one factor rescaled so its products
// fall into the subnormals, and one so they overflow to ±Inf.
func sweepCases(t *testing.T) []sweepCase {
	t.Helper()
	circuit := func(n int, btfPct float64, blocks int, kind matgen.CoreKind, seed int64) *sparse.CSC {
		return matgen.Circuit(matgen.CircuitParams{N: n, BTFPct: btfPct, Blocks: blocks, Core: kind, ExtraDensity: 0.3, Seed: seed})
	}
	ordered := func(a *sparse.CSC) *sparse.CSC {
		perm := amd.Order(a)
		return a.Permute(perm, perm)
	}
	// triangular has a dominant diagonal and entries at the given distances
	// below it, or above it when upper is set.
	triangular := func(n int, dists []int, upper bool) *sparse.CSC {
		coo := sparse.NewCOO(n, n, n*(1+len(dists)))
		for i := 0; i < n; i++ {
			coo.Add(i, i, 2+float64(i%5))
			for _, d := range dists {
				switch {
				case i+d >= n:
				case upper:
					coo.Add(i, i+d, 0.5)
				default:
					coo.Add(i+d, i, 0.5)
				}
			}
		}
		return coo.ToCSC(false)
	}
	inputs := []struct {
		name string
		a    *sparse.CSC
	}{
		{"ladder/btf", ordered(circuit(500, 100, 60, matgen.CoreLadder, 1))},
		{"ladder/nd", ordered(circuit(500, 0, 1, matgen.CoreLadder, 2))},
		{"ladder/mixed", ordered(circuit(500, 40, 30, matgen.CoreLadder, 3))},
		{"grid/nd", ordered(circuit(500, 0, 1, matgen.CoreGrid, 4))},
		{"grid/mixed", ordered(circuit(500, 30, 20, matgen.CoreGrid, 5))},
		{"grid3d/nd", ordered(circuit(500, 0, 1, matgen.CoreGrid3D, 6))},
		{"grid3d/mixed", ordered(circuit(500, 50, 40, matgen.CoreGrid3D, 7))},
		{"mesh2d", ordered(matgen.Mesh2D(20, 8))},
		{"mesh3d", ordered(matgen.Mesh3D(7, 9))},
		{"powergrid", ordered(matgen.PowerGrid(500, 25, 10))},
		{"ladder/n=5000", ordered(circuit(5000, 20, 200, matgen.CoreLadder, 11))},
		{"n=1", triangular(1, nil, false)},
		{"diagonal", triangular(40, nil, false)},
		{"upper", triangular(40, []int{1, 7}, true)},
		{"lower", triangular(40, []int{1, 7}, false)},
	}
	var cases []sweepCase
	for _, in := range inputs {
		f, err := Factor(in.a, 0, Options{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		cases = append(cases, sweepCase{in.name, f})
	}
	base := cases[1].f
	for _, s := range []struct {
		name string
		l, u float64
	}{{"ladder/nd/subnormal", 1e-310, 1e-300}, {"ladder/nd/overflow", 1e300, 1}} {
		f := &Factors{N: base.N, L: base.L.Clone(), U: base.U.Clone()}
		for i := range f.L.Values {
			f.L.Values[i] *= s.l
		}
		for i := range f.U.Values {
			f.U.Values[i] *= s.u
		}
		cases = append(cases, sweepCase{s.name, f})
	}
	return cases
}

// sweepPanel is one right-hand-side panel the sweeps are compared on.
type sweepPanel struct {
	name string
	y    []PanelRow
}

// sweepPanels returns dense rows; a leading 70 % of rows that are all +0,
// all −0, a ±0 mix (the all-lanes-zero column skip, which must count −0 as
// zero) or zero but for one live lane, before dense ones; and dense rows
// with lanes holding +Inf, −Inf, NaN and subnormals.
func sweepPanels(rng *rand.Rand, n int) []sweepPanel {
	negZero := math.Copysign(0, -1)
	dense := make([]PanelRow, n)
	zeros := make([]PanelRow, n)
	special := make([]PanelRow, n)
	for i := range n {
		for l := range PanelLanes {
			dense[i][l] = rng.NormFloat64()
			special[i][l] = rng.NormFloat64()
			switch {
			case i >= n*7/10, i%4 == 3 && l == i/4%PanelLanes:
				zeros[i][l] = rng.NormFloat64()
			case i%4 == 1, i%4 == 2 && l%2 == 1:
				zeros[i][l] = negZero
			}
		}
		special[i][4] = math.Float64frombits(1 + uint64(rng.Intn(1<<20)))
	}
	special[n/2][1] = math.Inf(1)
	special[n/3][2] = math.Inf(-1)
	special[n/4][3] = math.NaN()
	special[n-1][5] = math.NaN()
	return []sweepPanel{{"dense", dense}, {"zero-prefix", zeros}, {"inf-nan-subnormal", special}}
}

// panelPad is the number of guard rows on each side of a guarded panel.
const panelPad = 3

// guardBits marks the rows around a panel that no sweep may write.
const guardBits = 0x7ff4_dead_beef_0001

// guardedPanel returns a buffer of n rows framed by panelPad guard rows on
// each side, and the n rows in between: an offset sub-slice, the way
// ndSolvePanel passes y[c0:c1].
func guardedPanel(n int) (buf, y []PanelRow) {
	buf = make([]PanelRow, n+2*panelPad)
	for i := range buf {
		for l := range buf[i] {
			buf[i][l] = math.Float64frombits(guardBits)
		}
	}
	return buf, buf[panelPad : panelPad+n]
}

// guardsIntact reports whether every guard row of buf is unwritten.
func guardsIntact(buf []PanelRow) bool {
	for i, r := range buf {
		if i >= panelPad && i < len(buf)-panelPad {
			continue
		}
		for _, v := range r {
			if math.Float64bits(v) != guardBits {
				return false
			}
		}
	}
	return true
}

// panelSweeps pairs each Go loop with its vector kernel.
var panelSweeps = []struct {
	name     string
	ref, vec func(*Factors, []PanelRow)
}{
	{"L", (*Factors).lsolvePanelGo, (*Factors).lsolvePanelVec},
	{"U", (*Factors).usolvePanelGo, (*Factors).usolvePanelVec},
}

// TestPanelSweepVectorBitwise pins the vector panel sweeps to the Go loops:
// after each of L and U every component carries the same bits (two NaNs
// agree whatever their payloads, which x86 picks by operand order), and no
// row around the vector side's offset sub-slice is written.
func TestPanelSweepVectorBitwise(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no vector panel sweep in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(30))
	for _, c := range sweepCases(t) {
		for _, p := range sweepPanels(rng, c.f.N) {
			want := slices.Clone(p.y)
			buf, got := guardedPanel(c.f.N)
			copy(got, p.y)
			for _, s := range panelSweeps {
				s.ref(c.f, want)
				s.vec(c.f, got)
				for i := range want {
					for l, w := range want[i] {
						g := got[i][l]
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("%s/%s: after %s, row %d lane %d: vector %v (%#x), Go %v (%#x)",
								c.name, p.name, s.name, i, l, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			}
			if !guardsIntact(buf) {
				t.Fatalf("%s/%s: the vector sweeps wrote outside y", c.name, p.name)
			}
		}
	}
}

// TestPanelSweepCorruptFactor checks that both paths of each sweep panic on
// a corrupt factor, recoverably and before writing any row outside y: a row
// ≥ n and a negative row, in L and in U; an L column pointer past
// len(Rowidx); and U's pivot slot past the end of its values.
func TestPanelSweepCorruptFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randNonsingular(rng, 40, 0.15)
	cases := []struct {
		name    string
		upper   bool
		corrupt func(f *Factors, j, p int) // j, p: the first off-diagonal column and entry the sweep meets
	}{
		{"L row >= n", false, func(f *Factors, _, p int) { f.L.Rowidx[p] = f.N }},
		{"L negative row", false, func(f *Factors, _, p int) { f.L.Rowidx[p] = -1 }},
		{"L colptr past rowidx", false, func(f *Factors, j, _ int) { f.L.Colptr[j+1] = len(f.L.Rowidx) + 1 }},
		{"U row >= n", true, func(f *Factors, _, p int) { f.U.Rowidx[p] = f.N }},
		{"U negative row", true, func(f *Factors, _, p int) { f.U.Rowidx[p] = -1 }},
		{"U pivot slot past end", true, func(f *Factors, _, _ int) { f.U.Colptr[f.N] = len(f.U.Values) + 1 }},
	}
	for _, c := range cases {
		s := panelSweeps[0]
		if c.upper {
			s = panelSweeps[1]
		}
		for _, path := range []struct {
			name  string
			sweep func(*Factors, []PanelRow)
		}{{"go", s.ref}, {"vector", s.vec}} {
			if path.name == "vector" && !hasAVX2 {
				continue
			}
			f, err := Factor(a, 0, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Factor's storage is exact-length, which matters here: the Go
			// loops bound a sub-slice by capacity, not length.
			j, p := firstOffDiagonal(f, c.upper)
			c.corrupt(f, j, p)
			buf, y := guardedPanel(f.N)
			for i := range y {
				for l := range y[i] {
					y[i][l] = 1 + rng.Float64()
				}
			}
			if !panics(func() { path.sweep(f, y) }) {
				t.Fatalf("%s, %s sweep: no panic", c.name, path.name)
			}
			if !guardsIntact(buf) {
				t.Fatalf("%s, %s sweep: wrote outside y", c.name, path.name)
			}
		}
	}
}

// firstOffDiagonal returns the first column the L sweep (ascending) or,
// when upper is set, the U sweep (descending) meets that has an
// off-diagonal entry, and the position of its first such entry.
func firstOffDiagonal(f *Factors, upper bool) (j, p int) {
	for k := range f.N {
		if upper {
			if j := f.N - 1 - k; f.U.Colptr[j] < f.U.Colptr[j+1]-1 {
				return j, f.U.Colptr[j]
			}
		} else if f.L.Colptr[k]+1 < f.L.Colptr[k+1] {
			return k, f.L.Colptr[k] + 1
		}
	}
	panic("factor has no off-diagonal entry")
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// BenchmarkPanelSweep times an L and a U panel sweep, each op from a fresh
// copy of one 8-lane panel, through the Go loops and through the vector
// kernels, on the largest diagonal block of the 30k-row Xyce-class circuit
// (the solve_batch pattern), matched and AMD-ordered as the solver orders a
// one-leaf block.
func BenchmarkPanelSweep(b *testing.B) {
	blocks := ndSnodeCases(b, "xyce", matgen.Circuit(matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111}))
	if len(blocks) == 0 {
		b.Fatal("the xyce pattern has no large diagonal block")
	}
	f, err := Factor(blocks[0].a, 0, Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	in := make([]PanelRow, f.N)
	for i := range in {
		for l := range in[i] {
			in[i][l] = rng.NormFloat64()
		}
	}
	y := make([]PanelRow, f.N)
	for _, path := range []struct {
		name string
		l, u func(*Factors, []PanelRow)
	}{
		{"go", (*Factors).lsolvePanelGo, (*Factors).usolvePanelGo},
		{"vector", (*Factors).lsolvePanelVec, (*Factors).usolvePanelVec},
	} {
		b.Run(path.name, func(b *testing.B) {
			if path.name == "vector" && !hasAVX2 {
				b.Skip("no vector panel sweep in this build or on this CPU")
			}
			for b.Loop() {
				copy(y, in)
				path.l(f, y)
				path.u(f, y)
			}
		})
	}
}

// BenchmarkColumnSweep times the single-vector column kernels on the same
// 30k xyce leaf, factored column at a time: each op is one LSolve + USolve
// from a fresh copy of one right-hand side and one full Refactor, through
// the pre-hoist reference loops (column_ref_test.go) and through the
// production kernels. solve-ms and refactor-ms split the op.
func BenchmarkColumnSweep(b *testing.B) {
	blocks := ndSnodeCases(b, "xyce", matgen.Circuit(matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111}))
	if len(blocks) == 0 {
		b.Fatal("the xyce pattern has no large diagonal block")
	}
	a := blocks[0].a
	f, err := Factor(a, 0, Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	in := make([]float64, f.N)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	y := make([]float64, f.N)
	ws := NewWorkspace(f.N)
	refRefactor := func(f *Factors, a *sparse.CSC, ws *Workspace) error {
		for k := range f.N {
			if err := f.refactorColumnRef(a, ws.X, k); err != nil {
				return err
			}
		}
		return nil
	}
	for _, path := range []struct {
		name     string
		l, u     func(*Factors, []float64)
		refactor func(*Factors, *sparse.CSC, *Workspace) error
	}{
		{"ref", (*Factors).lsolveRef, (*Factors).usolveRef, refRefactor},
		{"kernel", (*Factors).LSolve, (*Factors).USolve, (*Factors).Refactor},
	} {
		b.Run(path.name, func(b *testing.B) {
			var solve, refactor time.Duration
			for b.Loop() {
				t0 := time.Now()
				copy(y, in)
				path.l(f, y)
				path.u(f, y)
				t1 := time.Now()
				if err := path.refactor(f, a, ws); err != nil {
					b.Fatal(err)
				}
				solve += t1.Sub(t0)
				refactor += time.Since(t1)
			}
			b.ReportMetric(float64(solve.Nanoseconds())/1e6/float64(b.N), "solve-ms")
			b.ReportMetric(float64(refactor.Nanoseconds())/1e6/float64(b.N), "refactor-ms")
		})
	}
}
