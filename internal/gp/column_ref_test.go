package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/etree"
	"repro/internal/sparse"
)

// The scalar column loops as they stood before their slice headers were
// hoisted, kept verbatim as the oracle of the bitwise pins below: every
// entry reads Colptr, Rowidx and Values through the *Factors pointer. The
// production loops must perform the same operations in the same order.

func (f *Factors) lsolveRef(y []float64) {
	for j := 0; j < f.N; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.L.Colptr[j] + 1; p < f.L.Colptr[j+1]; p++ {
			y[f.L.Rowidx[p]] -= float64(f.L.Values[p] * yj)
		}
	}
}

func (f *Factors) usolveRef(y []float64) {
	for j := f.N - 1; j >= 0; j-- {
		p1 := f.U.Colptr[j+1]
		piv := f.U.Values[p1-1] // diagonal is the largest row index: last
		yj := y[j] / piv
		y[j] = yj
		if yj == 0 {
			continue
		}
		for p := f.U.Colptr[j]; p < p1-1; p++ {
			y[f.U.Rowidx[p]] -= float64(f.U.Values[p] * yj)
		}
	}
}

func (f *Factors) lsolveTRef(y []float64) {
	for j := f.N - 1; j >= 0; j-- {
		yj := y[j]
		for p := f.L.Colptr[j] + 1; p < f.L.Colptr[j+1]; p++ {
			yj -= float64(f.L.Values[p] * y[f.L.Rowidx[p]])
		}
		y[j] = yj
	}
}

func (f *Factors) usolveTRef(y []float64) {
	for j := 0; j < f.N; j++ {
		p1 := f.U.Colptr[j+1]
		yj := y[j]
		for p := f.U.Colptr[j]; p < p1-1; p++ {
			yj -= float64(f.U.Values[p] * y[f.U.Rowidx[p]])
		}
		y[j] = yj / f.U.Values[p1-1]
	}
}

func (f *Factors) refactorColumnRef(a *sparse.CSC, x []float64, k int) error {
	// Scatter P·A(:,k) over pivot positions.
	for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
		x[f.Pinv[a.Rowidx[p]]] = a.Values[p]
	}
	// Eliminate along U(:,k)'s pattern in ascending row order.
	up0, up1 := f.U.Colptr[k], f.U.Colptr[k+1]
	for p := up0; p < up1-1; p++ {
		j := f.U.Rowidx[p]
		xj := x[j]
		f.U.Values[p] = xj
		if xj == 0 {
			continue
		}
		rows := f.L.Rowidx[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
		vals := f.L.Values[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
		vals = vals[:len(rows)] // bounds-check elimination hint
		for t, i := range rows {
			x[i] -= float64(vals[t] * xj)
		}
	}
	piv := x[k]
	if piv == 0 {
		// Clear workspace before reporting.
		for p := up0; p < up1; p++ {
			x[f.U.Rowidx[p]] = 0
		}
		for t := f.L.Colptr[k]; t < f.L.Colptr[k+1]; t++ {
			x[f.L.Rowidx[t]] = 0
		}
		return fmt.Errorf("gp: refactor column %d: %w", k, ErrSingular)
	}
	f.U.Values[up1-1] = piv
	for t := f.L.Colptr[k] + 1; t < f.L.Colptr[k+1]; t++ {
		i := f.L.Rowidx[t]
		f.L.Values[t] = x[i] / piv
		x[i] = 0
	}
	for p := up0; p < up1; p++ {
		x[f.U.Rowidx[p]] = 0
	}
	return nil
}

func (f *Factors) outsideColumnsRef(a *sparse.CSC, x []float64, k0, k1 int, panel *dense.Matrix) {
	w := k1 - k0
	below := f.L.Rowidx[f.L.Colptr[k0]+w : f.L.Colptr[k0+1]]
	for c := 0; c < w; c++ {
		k := k0 + c
		for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
			x[f.Pinv[a.Rowidx[p]]] = a.Values[p]
		}
		for p := f.U.Colptr[k]; f.U.Rowidx[p] < k0; p++ {
			j := f.U.Rowidx[p]
			xj := x[j]
			f.U.Values[p] = xj
			x[j] = 0
			if xj == 0 {
				continue
			}
			rows := f.L.Rowidx[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
			vals := f.L.Values[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
			vals = vals[:len(rows)] // bounds-check elimination hint
			for t, i := range rows {
				x[i] -= float64(vals[t] * xj)
			}
		}
		col := panel.Col(c)
		for d := 0; d < w; d++ {
			col[d] = x[k0+d]
			x[k0+d] = 0
		}
		for t, pos := range below {
			col[w+t] = x[pos]
			x[pos] = 0
		}
	}
}

// refactorLowerBlockRef and refactorUpperBlockRef are the two coupling
// refresh kernels as they stood before their headers were hoisted, the
// oracle of checkBlockKernels.
func (f *Factors) refactorLowerBlockRef(dst, b *sparse.CSC, acc []float64) {
	for c := 0; c < b.N; c++ {
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			acc[b.Rowidx[p]] += b.Values[p]
		}
		up0, up1 := f.U.Colptr[c], f.U.Colptr[c+1]
		for p := up0; p < up1-1; p++ {
			t := f.U.Rowidx[p]
			utc := f.U.Values[p]
			if utc == 0 {
				continue // refreshed value drifted to zero: contribution vanishes
			}
			for q := dst.Colptr[t]; q < dst.Colptr[t+1]; q++ {
				acc[dst.Rowidx[q]] -= float64(dst.Values[q] * utc)
			}
		}
		piv := f.U.Values[up1-1]
		for p := dst.Colptr[c]; p < dst.Colptr[c+1]; p++ {
			i := dst.Rowidx[p]
			dst.Values[p] = acc[i] / piv
			acc[i] = 0
		}
	}
}

func (f *Factors) refactorUpperBlockRef(dst, b *sparse.CSC, ws *Workspace) {
	ws.Grow(f.N)
	x := ws.X
	for c := 0; c < b.N; c++ {
		for p := b.Colptr[c]; p < b.Colptr[c+1]; p++ {
			x[f.Pinv[b.Rowidx[p]]] = b.Values[p]
		}
		for p := dst.Colptr[c]; p < dst.Colptr[c+1]; p++ {
			r := dst.Rowidx[p]
			xr := x[r]
			dst.Values[p] = xr
			x[r] = 0
			if xr == 0 {
				continue
			}
			for q := f.L.Colptr[r] + 1; q < f.L.Colptr[r+1]; q++ {
				x[f.L.Rowidx[q]] -= float64(f.L.Values[q] * xr)
			}
		}
	}
}

// refactorRef is Factors.Refactor over the reference loops: the same walk
// over the factor's supernodes, refactorColumnRef for a column or a
// singleton supernode, and a wide supernode's outside update through
// outsideColumnsRef unless it is blocked (the blocked update has its own
// reference in snode_test.go).
func (f *Factors) refactorRef(a *sparse.CSC, ws *Workspace) error {
	ws.Grow(f.N)
	for s, k0 := 0, 0; k0 < f.N; s++ {
		k1 := k0 + 1
		if f.Snodes != nil {
			k1 = f.Snodes[s+1]
		}
		if k1 == k0+1 {
			if err := f.refactorColumnRef(a, ws.X, k0); err != nil {
				return err
			}
		} else {
			panel := ws.Panel(f.L.Colptr[k0+1]-f.L.Colptr[k0], k1-k0)
			if f.snBlocked[s] {
				f.outsideBlocked(a, ws, k0, k1, panel)
			} else {
				f.outsideColumnsRef(a, ws.X, k0, k1, panel)
			}
			if err := eliminatePanel(panel, k0, nil, 0, false); err != nil {
				return err
			}
			f.scatterPanel(panel, k0)
		}
		k0 = k1
	}
	return nil
}

// columnSpecials are the values that take the kernels' edge paths: signed
// zeros (the xj == 0 / yj == 0 skips), infinities, NaN and subnormals.
var columnSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-310}

// specialValue draws a normal value, or with probability rate one of
// columnSpecials.
func specialValue(rng *rand.Rand, rate float64) float64 {
	if rng.Float64() < rate {
		return columnSpecials[rng.Intn(len(columnSpecials))]
	}
	return rng.NormFloat64()
}

// sameBits reports whether two values carry the same bits; any NaN matches
// any NaN, whose payload x86 picks by operand order (see assertBitsEqual).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// cloneFactors returns a deep copy of f's values (patterns shared), so a
// reference and a kernel refresh start from the same bits.
func cloneFactors(f *Factors) *Factors {
	g := *f
	g.L, g.U = f.L.Clone(), f.U.Clone()
	return &g
}

// checkColumnKernels runs every rewritten kernel and its reference on f and
// the refresh input a2: one full refresh each, then the four triangular
// solves on each right-hand side, and fails on the first bit that differs.
// The kernel side's accumulator must come back clean, the error path
// included. It returns the refreshed factor.
func checkColumnKernels(t *testing.T, ctx string, f *Factors, a2 *sparse.CSC, ys [][]float64) *Factors {
	t.Helper()
	ref, ker := cloneFactors(f), cloneFactors(f)
	wsRef, wsKer := NewWorkspace(f.N), NewWorkspace(f.N)
	errRef, errKer := ref.refactorRef(a2, wsRef), ker.Refactor(a2, wsKer)
	if fmt.Sprint(errRef) != fmt.Sprint(errKer) {
		t.Fatalf("%s: refresh errors diverge: reference %v, kernel %v", ctx, errRef, errKer)
	}
	assertBitsEqual(t, ref, ker, ctx+": refresh")
	for i, v := range wsKer.X[:f.N] {
		if v != 0 || math.Signbit(v) {
			t.Fatalf("%s: accumulator entry %d left dirty: %v", ctx, i, v)
		}
	}
	for _, s := range []struct {
		name     string
		ref, ker func(*Factors, []float64)
	}{
		{"L", (*Factors).lsolveRef, (*Factors).LSolve},
		{"U", (*Factors).usolveRef, (*Factors).USolve},
		{"Lt", (*Factors).lsolveTRef, (*Factors).LSolveT},
		{"Ut", (*Factors).usolveTRef, (*Factors).USolveT},
	} {
		for yi, y := range ys {
			want, got := append([]float64(nil), y...), append([]float64(nil), y...)
			s.ref(ker, want)
			s.ker(ker, got)
			for i := range want {
				if !sameBits(want[i], got[i]) {
					t.Fatalf("%s: %s solve, rhs %d: y[%d] = %v, want %v", ctx, s.name, yi, i, got[i], want[i])
				}
			}
		}
	}
	return ker
}

// randomBlock returns an m×n block with the given fill and a fuzzed share
// of specials among its values.
func randomBlock(rng *rand.Rand, m, n int, fill, rate float64) *sparse.CSC {
	coo := sparse.NewCOO(m, n, 0)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if rng.Float64() < fill {
				coo.Add(i, j, specialValue(rng, rate))
			}
		}
	}
	return coo.ToCSC(false)
}

// lowerPatternRef is the pattern of X solving X·U = B: column c is the
// union of B(:,c)'s rows and those of X(:,t) for t in U(:,c)'s pattern.
// The values are zero.
func (f *Factors) lowerPatternRef(b *sparse.CSC) *sparse.CSC {
	x := sparse.NewCSC(b.M, b.N, 0)
	for c := 0; c < b.N; c++ {
		seen := make([]bool, b.M)
		for _, i := range b.Rowidx[b.Colptr[c]:b.Colptr[c+1]] {
			seen[i] = true
		}
		for _, t := range f.U.Rowidx[f.U.Colptr[c] : f.U.Colptr[c+1]-1] {
			for _, i := range x.Rowidx[x.Colptr[t]:x.Colptr[t+1]] {
				seen[i] = true
			}
		}
		for i, in := range seen {
			if in {
				x.Rowidx = append(x.Rowidx, i)
			}
		}
		x.Colptr[c+1] = len(x.Rowidx)
	}
	x.Values = make([]float64, len(x.Rowidx))
	return x
}

// checkBlockKernels runs the two hoisted coupling kernels and their
// pre-hoist references on f over random couplings — an upper block with
// f.N rows and a lower block with f.N columns, values with specials at the
// given rate — and fails on the first bit that differs or a scratch left
// dirty.
func checkBlockKernels(t *testing.T, ctx string, rng *rand.Rand, f *Factors, rate float64) {
	t.Helper()
	n, ws := f.N, NewWorkspace(f.N)
	bu := randomBlock(rng, n, 1+rng.Intn(4), 3/float64(n)+rng.Float64()*0.2, rate)
	bl := randomBlock(rng, 1+rng.Intn(6), n, 0.1+rng.Float64()*0.3, rate)
	up, lo := f.UpperBlockPattern(nil, bu, ws), f.lowerPatternRef(bl)
	acc := make([]float64, bl.M)
	ref, ker := up.Clone(), up.Clone()
	f.refactorUpperBlockRef(ref, bu, ws)
	f.RefactorUpperBlock(ker, bu, ws)
	checkBlockBits(t, ctx+": upper", ref, ker, ws.X[:n])
	ref, ker = lo.Clone(), lo.Clone()
	f.refactorLowerBlockRef(ref, bl, acc)
	f.RefactorLowerBlock(ker, bl, acc)
	checkBlockBits(t, ctx+": lower", ref, ker, acc)
}

// checkBlockBits fails unless the two blocks' values carry the same bits
// (any NaN matching any NaN, as in sameBits) and the scratch is clean.
func checkBlockBits(t *testing.T, ctx string, ref, ker *sparse.CSC, scratch []float64) {
	t.Helper()
	for p, v := range ref.Values {
		if !sameBits(v, ker.Values[p]) {
			t.Fatalf("%s: entry %d = %v, reference %v", ctx, p, ker.Values[p], v)
		}
	}
	for i, v := range scratch {
		if v != 0 || math.Signbit(v) {
			t.Fatalf("%s: scratch entry %d left dirty: %v", ctx, i, v)
		}
	}
}

// columnRHS returns the right-hand sides of the solve pins: dense, 70 %
// signed zeros (the yj == 0 skip must count −0 as zero), and dense with
// 10 % specials.
func columnRHS(rng *rand.Rand, n int) [][]float64 {
	ys := make([][]float64, 3)
	for i := range ys {
		ys[i] = make([]float64, n)
	}
	for i := range n {
		ys[0][i] = rng.NormFloat64()
		ys[1][i] = specialValue(rng, 0)
		if rng.Float64() < 0.7 {
			ys[1][i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
		ys[2][i] = specialValue(rng, 0.1)
	}
	return ys
}

// columnInputs returns the refresh inputs on a's pattern: fresh values,
// 30 % exact zeros of either sign (zero multipliers, skipped updates), 5 %
// specials, and a copy that zeroes one column so its pivot fails.
func columnInputs(rng *rand.Rand, a *sparse.CSC) []struct {
	name string
	a    *sparse.CSC
} {
	fresh, zeros, special, singular := a.Clone(), a.Clone(), a.Clone(), a.Clone()
	for i := range a.Values {
		fresh.Values[i] = a.Values[i] * (1 + 0.25*rng.Float64())
		zeros.Values[i] = fresh.Values[i]
		if rng.Float64() < 0.3 {
			zeros.Values[i] = columnSpecials[rng.Intn(2)]
		}
		special.Values[i] = a.Values[i]
		if rng.Float64() < 0.05 {
			special.Values[i] = columnSpecials[rng.Intn(len(columnSpecials))]
		}
	}
	k := rng.Intn(a.N)
	for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
		singular.Values[p] = 0
	}
	return []struct {
		name string
		a    *sparse.CSC
	}{{"fresh", fresh}, {"zeros", zeros}, {"special", special}, {"singular", singular}}
}

// TestColumnKernelsMatchReference pins the hoisted column loops — LSolve,
// USolve, LSolveT, USolveT, refactorColumn and outsideColumns — and the
// two coupling kernels RefactorUpperBlock and RefactorLowerBlock to their
// verbatim pre-hoist references bit for bit, on every ND block of the
// Table I suite and the three bench patterns (as the one-leaf engine
// orders them) and the synthetic dense-ish blocks, each factored column at
// a time and supernodally with every wide supernode sent through
// outsideColumns (the blocked update is not rewritten and has its own
// pin), over value sets with signed zeros, infinities, NaN and subnormals;
// the coupling kernels run on random couplings of the factor refreshed
// from the specials.
func TestColumnKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, c := range bitwiseCases(t) {
		var col, sn Factors
		if err := FactorInto(&col, c.a, nil, 0, Options{}, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := FactorInto(&sn, c.a, c.xsup, 0, Options{}, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sn.snBlocked = make([]bool, len(sn.snBlocked))
		ys := columnRHS(rng, c.a.N)
		for _, in := range columnInputs(rng, c.a) {
			for _, l := range []struct {
				name string
				f    *Factors
			}{{"column", &col}, {"supernodal", &sn}} {
				ctx := c.name + "/" + l.name + "/" + in.name
				ker := checkColumnKernels(t, ctx, l.f, in.a, ys)
				if in.name == "special" {
					checkBlockKernels(t, ctx, rng, ker, 0.05)
				}
			}
		}
	}
}

// FuzzColumnKernels runs the column-kernel pin on random square patterns:
// a dominant diagonal plus off-diagonal entries at a fuzzed density, with a
// fuzzed share of the factored and the refreshed values drawn from the
// specials. Each input is factored column at a time and supernodally, with
// every wide supernode refreshed through outsideColumns, and random
// couplings of the refreshed factor run through the coupling kernels.
func FuzzColumnKernels(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(60), uint8(8), uint8(0))
	f.Add(int64(2), uint8(70), uint8(20), uint8(4), uint8(30))
	f.Add(int64(3), uint8(12), uint8(200), uint8(16), uint8(120))
	f.Add(int64(4), uint8(0), uint8(0), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n8, fill8, relax8, special8 uint8) {
		n := 1 + int(n8)%90
		fill := float64(fill8) / 255
		rate := float64(special8) / 255 / 2
		rng := rand.New(rand.NewSource(seed))
		coo := sparse.NewCOO(n, n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					coo.Add(i, j, 4+rng.Float64())
				} else if rng.Float64() < fill {
					coo.Add(i, j, specialValue(rng, rate))
				}
			}
		}
		a := coo.ToCSC(false)
		xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 1+int(relax8)%16, 64)
		var col, sn Factors
		if FactorInto(&col, a, nil, 0, Options{}, nil) != nil || FactorInto(&sn, a, xsup, 0, Options{}, nil) != nil {
			return
		}
		sn.snBlocked = make([]bool, len(sn.snBlocked))
		a2 := a.Clone()
		for i := range a2.Values {
			a2.Values[i] = specialValue(rng, rate)
		}
		ys := columnRHS(rng, n)
		checkBlockKernels(t, "column", rng, checkColumnKernels(t, "column", &col, a2, ys), rate)
		checkBlockKernels(t, "supernodal", rng, checkColumnKernels(t, "supernodal", &sn, a2, ys), rate)
	})
}
