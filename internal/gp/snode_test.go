package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/etree"
	"repro/internal/matgen"
	"repro/internal/order/amd"
	"repro/internal/order/btf"
	"repro/internal/order/matching"
	"repro/internal/sparse"
)

// perturbSamePattern returns a copy of a with every value scaled by a
// random factor — same pattern, fresh values, still diagonally dominant
// when a was.
func perturbSamePattern(rng *rand.Rand, a *sparse.CSC) *sparse.CSC {
	out := a.Clone()
	for i := range out.Values {
		out.Values[i] *= 1 + 0.25*rng.Float64()
	}
	return out
}

func assertValuesEqual(t *testing.T, want, got *Factors, ctx string) {
	t.Helper()
	for i, v := range want.L.Values {
		if got.L.Values[i] != v {
			t.Fatalf("%s: L value %d diverges: %v vs %v", ctx, i, got.L.Values[i], v)
		}
	}
	for i, v := range want.U.Values {
		if got.U.Values[i] != v {
			t.Fatalf("%s: U value %d diverges: %v vs %v", ctx, i, got.U.Values[i], v)
		}
	}
}

// TestFactorSupernodalMatchesPlain: across densities spanning the
// supernodal sweet spot, the supernodal factorization (partition from the
// column elimination tree) must satisfy every factor invariant, reconstruct
// P·A, and solve to the same answers as the plain per-column kernel.
func TestFactorSupernodalMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{20, 60, 120} {
		for _, fill := range []float64{0.05, 0.15, 0.35} {
			a := denseishCSC(rng, n, fill, true)
			xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 8, 64)
			sn := &Factors{}
			if err := FactorInto(sn, a, xsup, 0, Options{}, nil); err != nil {
				t.Fatalf("n=%d fill=%g: %v", n, fill, err)
			}
			checkFactorization(t, a, sn, 100)
			plain, err := Factor(a, 0, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			x := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
				x[i] = b[i]
			}
			plain.Solve(b)
			sn.Solve(x)
			for i := range b {
				if math.Abs(b[i]-x[i]) > 1e-8*(1+math.Abs(b[i])) {
					t.Fatalf("n=%d fill=%g: solve diverges at %d: %v vs %v", n, fill, i, x[i], b[i])
				}
			}
			if len(sn.Snodes) != len(xsup) {
				t.Fatalf("factors do not carry the supernode partition")
			}
		}
	}
}

// TestFactorSupernodalArbitraryPartition: padding makes ANY partition
// correct — the elimination tree only drives quality. Fixed-width runs that
// ignore the tree entirely must still factor correctly, with true partial
// pivoting exercising the panel's row swaps.
func TestFactorSupernodalArbitraryPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	n := 48
	a := denseishCSC(rng, n, 0.3, false)
	for _, w := range []int{2, 5, 7, n} {
		xsup := []int{0}
		for xsup[len(xsup)-1] < n {
			e := xsup[len(xsup)-1] + w
			if e > n {
				e = n
			}
			xsup = append(xsup, e)
		}
		sn := &Factors{}
		if err := FactorInto(sn, a, xsup, 0, Options{PivotTol: 1}, nil); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		checkFactorization(t, a, sn, 100)
	}
}

// TestRefactorSupernodalBitwise pins the refresh contracts the fine-ND
// sweeps rely on, on every layout the one refresh loop serves: column
// (FactorInto with a nil partition), supernodal (FactorInto with xsup)
// and dense-built (FactorDenseInto) factors of one matrix. A same-values
// refresh right after the factor is a bitwise no-op (one arithmetic),
// Refactor is bitwise equal to the column-at-a-time reference on the same
// factor, RefactorSelective with every column
// stamped and over a random stamp set is bitwise identical to the full
// refresh, no stamps rerun nothing, and both entries allocate nothing with
// one shared workspace — which pins that its panel pool is reused.
func TestRefactorSupernodalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	n := 90
	a := denseishCSC(rng, n, 0.15, true)
	xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 8, 64)
	wide := false
	for s := 0; s+1 < len(xsup); s++ {
		if xsup[s+1]-xsup[s] >= 2 {
			wide = true
		}
	}
	if !wide {
		t.Fatal("test premise broken: partition has no wide supernode")
	}
	ws := NewWorkspace(n)
	for _, layout := range []struct {
		name   string
		factor func(f *Factors) error
	}{
		{"column", func(f *Factors) error { return FactorInto(f, a, nil, 0, Options{}, ws) }},
		{"supernodal", func(f *Factors) error { return FactorInto(f, a, xsup, 0, Options{}, ws) }},
		{"dense-built", func(f *Factors) error { return FactorDenseInto(f, a, Options{}, ws) }},
	} {
		// fs[2] refreshes through the column-at-a-time reference.
		var fs [3]*Factors
		for i := range fs {
			fs[i] = &Factors{}
			if err := layout.factor(fs[i]); err != nil {
				t.Fatalf("%s: %v", layout.name, err)
			}
		}
		checkFactorization(t, a, fs[0], 100)

		// One arithmetic: a same-values refresh of the factor changes no bit.
		snapL := append([]float64(nil), fs[0].L.Values...)
		snapU := append([]float64(nil), fs[0].U.Values...)
		if err := fs[0].Refactor(a, ws); err != nil {
			t.Fatal(err)
		}
		for i, v := range snapL {
			if fs[0].L.Values[i] != v {
				t.Fatalf("%s same-values refresh: L value %d changed", layout.name, i)
			}
		}
		for i, v := range snapU {
			if fs[0].U.Values[i] != v {
				t.Fatalf("%s same-values refresh: U value %d changed", layout.name, i)
			}
		}

		// Full vs the column-at-a-time reference and vs selective with
		// everything stamped: bitwise identical, and the rerun closure
		// marks every column.
		a2 := perturbSamePattern(rng, a)
		if err := fs[0].Refactor(a2, ws); err != nil {
			t.Fatal(err)
		}
		if err := fs[2].refactorColumns(a2, ws); err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, fs[2], fs[0], layout.name+" full vs column reference")
		stamp := make([]uint64, n)
		rerun := make([]bool, n)
		for i := range stamp {
			stamp[i] = 7
		}
		if err := fs[1].RefactorSelective(a2, ws, stamp, 7, rerun); err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, fs[0], fs[1], layout.name+" selective full-stamp")
		for k, r := range rerun {
			if !r {
				t.Fatalf("%s: column %d not marked rerun under full stamps", layout.name, k)
			}
		}
		checkFactorization(t, a2, fs[0], 100)

		// A random stamp set over exactly the changed columns: bitwise
		// identical to the full refresh.
		a3 := a2.Clone()
		for _, j := range rng.Perm(n)[:1+n/10] {
			stamp[j] = 8
			for p := a3.Colptr[j]; p < a3.Colptr[j+1]; p++ {
				a3.Values[p] *= 1 + 0.25*rng.Float64()
			}
		}
		if err := fs[0].Refactor(a3, ws); err != nil {
			t.Fatal(err)
		}
		if err := fs[1].RefactorSelective(a3, ws, stamp, 8, rerun); err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, fs[0], fs[1], layout.name+" selective random stamps")

		// No stamps at all: nothing reruns, nothing changes, rerun comes
		// back all-false.
		snapL = append(snapL[:0], fs[1].L.Values...)
		if err := fs[1].RefactorSelective(a, ws, stamp, 9, rerun); err != nil {
			t.Fatal(err)
		}
		for i, v := range snapL {
			if fs[1].L.Values[i] != v {
				t.Fatalf("%s: no-stamp refresh touched L value %d", layout.name, i)
			}
		}
		for k, r := range rerun {
			if r {
				t.Fatalf("%s: column %d marked rerun with no stamps", layout.name, k)
			}
		}

		// Steady state: neither entry allocates through the shared
		// workspace.
		if allocs := testing.AllocsPerRun(10, func() {
			if err := fs[0].Refactor(a3, ws); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: steady-state Refactor allocates: %v allocs/op", layout.name, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := fs[1].RefactorSelective(a3, ws, stamp, 8, rerun); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: steady-state RefactorSelective allocates: %v allocs/op", layout.name, allocs)
		}
	}
}

// TestRefactorSupernodalSelectiveClosure: stamping a single column reruns
// exactly its dependency closure at supernode granularity, bitwise equal to
// the full refresh when the unstamped prefix is unchanged.
func TestRefactorSupernodalSelectiveClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	n := 80
	a := denseishCSC(rng, n, 0.12, true)
	xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 8, 64)
	ws := NewWorkspace(n)
	var fs [2]*Factors
	for i := range fs {
		fs[i] = &Factors{}
		if err := FactorInto(fs[i], a, xsup, 0, Options{}, ws); err != nil {
			t.Fatal(err)
		}
		if err := fs[i].Refactor(a, ws); err != nil {
			t.Fatal(err)
		}
	}
	// Perturb one late column only.
	c := 3 * n / 4
	a2 := a.Clone()
	for p := a2.Colptr[c]; p < a2.Colptr[c+1]; p++ {
		a2.Values[p] *= 1.5
	}
	if err := fs[0].Refactor(a2, ws); err != nil {
		t.Fatal(err)
	}
	stamp := make([]uint64, n)
	rerun := make([]bool, n)
	stamp[c] = 3
	if err := fs[1].RefactorSelective(a2, ws, stamp, 3, rerun); err != nil {
		t.Fatal(err)
	}
	assertValuesEqual(t, fs[0], fs[1], "selective closure")
	if !rerun[c] {
		t.Fatal("stamped column not marked rerun")
	}
	for k := 0; k < n; k++ {
		if rerun[k] && k < c {
			// Allowed only for columns sharing c's supernode (over-refresh).
			in := false
			for s := 0; s+1 < len(xsup); s++ {
				if xsup[s] <= c && c < xsup[s+1] && xsup[s] <= k && k < xsup[s+1] {
					in = true
				}
			}
			if !in {
				t.Fatalf("column %d (< changed column %d, different supernode) reran", k, c)
			}
		}
	}
}

// TestRefactorSupernodalSingular: a pivot drifted to zero must surface
// ErrSingular through the usual chain — the fine-ND per-block fallback
// depends on it — and leave the workspace clean for the retry.
func TestRefactorSupernodalSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	n := 40
	a := denseishCSC(rng, n, 0.2, true)
	xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 8, 64)
	ws := NewWorkspace(n)
	f := &Factors{}
	if err := FactorInto(f, a, xsup, 0, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	for p := bad.Colptr[n/2]; p < bad.Colptr[n/2+1]; p++ {
		bad.Values[p] = 0
	}
	if err := f.Refactor(bad, ws); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular in chain", err)
	}
	// Workspace left clean: a fresh supernodal factorization of a good
	// matrix through the same workspace must succeed and verify.
	if err := FactorInto(f, a, xsup, 0, Options{}, ws); err != nil {
		t.Fatalf("retry after singular refresh: %v", err)
	}
	checkFactorization(t, a, f, 100)
}

// TestFactorSupernodalRecyclesStorage: the supernodal path must reach the
// same zero-allocation steady state as the per-column kernel once factor
// storage, workspace and panels have grown.
func TestFactorSupernodalRecyclesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n := 72
	base := denseishCSC(rng, n, 0.15, true)
	xsup := etree.RelaxedSupernodes(etree.ColEtree(base), nil, 8, 64)
	steps := make([]*sparse.CSC, 3)
	for i := range steps {
		steps[i] = perturbSamePattern(rng, base)
	}
	f := &Factors{}
	ws := NewWorkspace(n)
	for _, s := range steps {
		if err := FactorInto(f, s, xsup, 0, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := FactorInto(f, steps[i%len(steps)], xsup, 0, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state supernodal FactorInto allocates: %v allocs/op", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		i++
		if err := f.Refactor(steps[i%len(steps)], ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RefactorSupernodal allocates: %v allocs/op", allocs)
	}
}

// TestRefactorDenseMatchesSparseRefresh pins the dense-built layout at the
// kernel level: Refactor on a dense-built factorization — the single
// supernode [0, n), eliminated right-looking in the panel — produces values
// bitwise identical to the left-looking column-at-a-time refresh, and a
// selective refresh reruns the dirty dense block whole.
func TestRefactorDenseMatchesSparseRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 56
	a := denseishCSC(rng, n, 0.4, true)
	ws := NewWorkspace(n)
	var fs [2]*Factors
	for i := range fs {
		fs[i] = &Factors{}
		if err := FactorDenseInto(fs[i], a, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	}
	a2 := perturbSamePattern(rng, a)
	if err := fs[0].refactorColumns(a2, ws); err != nil {
		t.Fatal(err)
	}
	if err := fs[1].Refactor(a2, ws); err != nil {
		t.Fatal(err)
	}
	assertValuesEqual(t, fs[0], fs[1], "dense vs sparse refresh")

	// Perturb only columns >= c and stamp exactly those: the selective
	// refresh must match the full one bitwise, and the dense block, one
	// supernode, reruns whole.
	c := n / 3
	a3 := a2.Clone()
	for j := c; j < n; j++ {
		for p := a3.Colptr[j]; p < a3.Colptr[j+1]; p++ {
			a3.Values[p] *= 1.25
		}
	}
	if err := fs[0].Refactor(a3, ws); err != nil {
		t.Fatal(err)
	}
	stamp := make([]uint64, n)
	rerun := make([]bool, n)
	for j := c; j < n; j++ {
		stamp[j] = 5
	}
	if err := fs[1].RefactorSelective(a3, ws, stamp, 5, rerun); err != nil {
		t.Fatal(err)
	}
	assertValuesEqual(t, fs[0], fs[1], "selective dense refresh")
	for k := range rerun {
		if !rerun[k] {
			t.Fatalf("rerun[%d] = false: the dirty dense block must rerun whole", k)
		}
	}

	// No stamps: a no-op that clears rerun.
	if err := fs[1].RefactorSelective(a3, ws, stamp, 6, rerun); err != nil {
		t.Fatal(err)
	}
	for k := range rerun {
		if rerun[k] {
			t.Fatalf("rerun[%d] set by a no-stamp selective refresh", k)
		}
	}

	// Drifted-to-zero pivot: ErrSingular, factor values untouched.
	bad := a3.Clone()
	for p := bad.Colptr[0]; p < bad.Colptr[1]; p++ {
		bad.Values[p] = 0
	}
	snapU := append([]float64(nil), fs[1].U.Values...)
	if err := fs[1].Refactor(bad, ws); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular in chain", err)
	}
	for i, v := range snapU {
		if fs[1].U.Values[i] != v {
			t.Fatal("failed dense refresh touched factor values")
		}
	}
}

// TestDenseTRSMRefreshMatchesSolve: refreshing a dense coupling in place,
// over the stale values of an earlier solve, must reproduce a fresh build
// of the new right-hand block bitwise.
func TestDenseTRSMRefreshMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	n, m, h := 36, 22, 15
	a := denseishCSC(rng, n, 0.45, true)
	f := &Factors{}
	ws := NewWorkspace(n)
	if err := FactorDenseInto(f, a, Options{}, ws); err != nil {
		t.Fatal(err)
	}

	// Upper: refresh in place vs fresh build of the new right-hand block.
	b := denseishCSC(rng, n, 0.25, false).ExtractBlock(0, n, 0, m)
	up := denseUpperFresh(f, b)
	b2 := perturbSamePattern(rng, b)
	want := denseUpperFresh(f, b2)
	f.DenseUpperRefactor(up, b2)
	for i, v := range want.Values {
		if up.Values[i] != v {
			t.Fatalf("upper refresh value %d diverges: %v vs %v", i, up.Values[i], v)
		}
	}

	// Lower: same contract for X·U = B.
	bl := denseishCSC(rng, n, 0.25, false).ExtractBlock(0, h, 0, n)
	lo := denseLowerFresh(f, bl)
	bl2 := perturbSamePattern(rng, bl)
	wantL := denseLowerFresh(f, bl2)
	f.DenseLowerRefactor(lo, bl2)
	for i, v := range wantL.Values {
		if lo.Values[i] != v {
			t.Fatalf("lower refresh value %d diverges: %v vs %v", i, lo.Values[i], v)
		}
	}
}

// refactorSupernodalReference is the supernodal refresh as it stood before
// the blocked outside update, kept here as the oracle of the bitwise pins:
// every wide-supernode column eliminates against the outside columns one
// at a time through the dense accumulator, then the panel re-runs the
// fixed-sequence elimination and scatters back. A nil colStamp refreshes
// every supernode; otherwise the selective closure rule picks them.
func (f *Factors) refactorSupernodalReference(a *sparse.CSC, ws *Workspace, colStamp []uint64, epoch uint64, rerun []bool) error {
	n := f.N
	if a.M != n || a.N != n {
		return fmt.Errorf("gp: refactor dimension mismatch")
	}
	if err := checkPartition(f.Snodes, n); err != nil {
		return err
	}
	ws.Grow(n)
	x := ws.X
	xsup := f.Snodes
	for s := 0; s+1 < len(xsup); s++ {
		k0, k1 := xsup[s], xsup[s+1]
		if colStamp != nil && !f.snodeNeedsRerun(k0, k1, colStamp, epoch, rerun) {
			continue
		}
		if k1 == k0+1 {
			if err := f.refactorColumn(a, x, k0); err != nil {
				return err
			}
			continue
		}
		w := k1 - k0
		lp0, lp1 := f.L.Colptr[k0], f.L.Colptr[k0+1]
		below := f.L.Rowidx[lp0+w : lp1]
		m := w + len(below)
		panel := ws.Panel(m, w)
		for c := 0; c < w; c++ {
			k := k0 + c
			for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
				x[f.Pinv[a.Rowidx[p]]] = a.Values[p]
			}
			up1 := f.U.Colptr[k+1]
			for p := f.U.Colptr[k]; p < up1; p++ {
				j := f.U.Rowidx[p]
				if j >= k0 {
					break
				}
				xj := x[j]
				f.U.Values[p] = xj
				x[j] = 0
				if xj == 0 {
					continue
				}
				rows := f.L.Rowidx[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
				vals := f.L.Values[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
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
		for d := 0; d < w; d++ {
			cd := panel.Col(d)
			piv := cd[d]
			if piv == 0 {
				return fmt.Errorf("gp: refactor column %d: %w", k0+d, ErrSingular)
			}
			for r := d + 1; r < m; r++ {
				cd[r] /= piv
			}
			for j := d + 1; j < w; j++ {
				cj := panel.Col(j)
				fjd := cj[d]
				if fjd == 0 {
					continue
				}
				for r := d + 1; r < m; r++ {
					cj[r] -= float64(cd[r] * fjd)
				}
			}
		}
		for c := 0; c < w; c++ {
			k := k0 + c
			col := panel.Col(c)
			up1 := f.U.Colptr[k+1]
			for d := 0; d < c; d++ {
				f.U.Values[up1-1-c+d] = col[d]
			}
			f.U.Values[up1-1] = col[c]
			lp := f.L.Colptr[k]
			for d := c + 1; d < w; d++ {
				f.L.Values[lp+d-c] = col[d]
			}
			for t := range below {
				f.L.Values[lp+w-c+t] = col[w+t]
			}
		}
	}
	return nil
}

// snodeNeedsRerun is the backward form of the selective closure rule, kept
// as the reference of the forward closure: supernode [k0, k1) reruns when a
// column's input changed or an already-rerun column appears in one of its
// outside U patterns, and the verdict is recorded for each of its columns.
func (f *Factors) snodeNeedsRerun(k0, k1 int, colStamp []uint64, epoch uint64, rerun []bool) bool {
	need := false
	for k := k0; k < k1 && !need; k++ {
		if colStamp[k] == epoch {
			need = true
			break
		}
		up0, up1 := f.U.Colptr[k], f.U.Colptr[k+1]
		for p := up0; p < up1-1; p++ {
			r := f.U.Rowidx[p]
			if r >= k0 {
				break // supernode triangle: own columns, covered above
			}
			if rerun[r] {
				need = true
				break
			}
		}
	}
	for k := k0; k < k1; k++ {
		rerun[k] = need
	}
	return need
}

// refactorSelectiveScan is RefactorSelective with the closure found by a
// backward scan of every column's U pattern — the reference the forward
// closure must reproduce exactly.
func (f *Factors) refactorSelectiveScan(a *sparse.CSC, ws *Workspace, colStamp []uint64, epoch uint64, rerun []bool) error {
	ws.Grow(f.N)
	for k := 0; k < f.N; k++ {
		need := colStamp[k] == epoch
		if !need {
			up0, up1 := f.U.Colptr[k], f.U.Colptr[k+1]
			for p := up0; p < up1-1; p++ {
				if rerun[f.U.Rowidx[p]] {
					need = true
					break
				}
			}
		}
		rerun[k] = need
		if !need {
			continue
		}
		if err := f.refactorColumn(a, ws.X, k); err != nil {
			return err
		}
	}
	return nil
}

// forceBlocked sends every wide supernode of f through the blocked
// outside update, whatever its density.
func forceBlocked(f *Factors) {
	for s := range f.snBlocked {
		f.snBlocked[s] = true
	}
}

// refactorColumns is the column-at-a-time reference refresh: refactorColumn
// on every column in order, whatever partition f records.
func (f *Factors) refactorColumns(a *sparse.CSC, ws *Workspace) error {
	ws.Grow(f.N)
	for k := 0; k < f.N; k++ {
		if err := f.refactorColumn(a, ws.X, k); err != nil {
			return err
		}
	}
	return nil
}

// assertBitsEqual compares every L and U value of two factorizations
// bit for bit, so signed zeros count. Any NaN matches any NaN: IEEE 754
// leaves payload propagation open and the compiler may order the operands
// of a commutative multiply either way.
func assertBitsEqual(t testing.TB, want, got *Factors, ctx string) {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for i, v := range want.L.Values {
		if !same(got.L.Values[i], v) {
			t.Fatalf("%s: L value %d diverges: %v vs %v", ctx, i, got.L.Values[i], v)
		}
	}
	for i, v := range want.U.Values {
		if !same(got.U.Values[i], v) {
			t.Fatalf("%s: U value %d diverges: %v vs %v", ctx, i, got.U.Values[i], v)
		}
	}
}

// assertSameBits compares every L and U value of two factorizations by
// math.Float64bits: signed zeros and NaN payloads count.
func assertSameBits(t testing.TB, want, got *Factors, ctx string) {
	t.Helper()
	for _, c := range []struct {
		name      string
		want, got []float64
	}{{"L", want.L.Values, got.L.Values}, {"U", want.U.Values, got.U.Values}} {
		for i, v := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(v) {
				t.Fatalf("%s: %s value %d: %v (%#x), want %v (%#x)", ctx, c.name, i, c.got[i], math.Float64bits(c.got[i]), v, math.Float64bits(v))
			}
		}
	}
}

// snodeCase is one input of the supernodal bitwise pins: a square block
// and its supernode partition.
type snodeCase struct {
	name string
	a    *sparse.CSC
	xsup []int
}

// ndSnodeCases replays, on a, the single-thread analysis the fine-ND
// engine runs before factoring a leaf supernodally: BTF, then for every
// block big enough for the engine the local bottleneck matching, an AMD
// ordering of the matched block, and the relaxed supernode partition from
// its column elimination tree and symmetric column counts. It returns the
// permuted blocks that carry a wide supernode.
func ndSnodeCases(tb testing.TB, name string, a *sparse.CSC) []snodeCase {
	tb.Helper()
	form, err := btf.Compute(a, true)
	if err != nil {
		tb.Fatal(err)
	}
	b := a.Permute(form.RowPerm, form.ColPerm)
	var out []snodeCase
	for blk := 0; blk+1 < len(form.BlockPtr); blk++ {
		r0, r1 := form.BlockPtr[blk], form.BlockPtr[blk+1]
		if r1-r0 < max(128, a.N/4) {
			continue
		}
		d := b.ExtractBlock(r0, r1, r0, r1)
		match, err := matching.Bottleneck(d)
		if err != nil {
			tb.Fatal(err)
		}
		d = d.Permute(match.RowPerm, sparse.IdentityPerm(d.N))
		perm := amd.Order(d)
		d = d.Permute(perm, perm)
		counts := etree.ColCounts(d, etree.Symmetric(d))
		xsup := etree.RelaxedSupernodes(etree.ColEtree(d), counts, 8, 64)
		if len(xsup) < d.N+1 {
			out = append(out, snodeCase{fmt.Sprintf("%s/%d", name, blk), d, xsup})
		}
	}
	return out
}

// bitwiseCases gathers the inputs of TestRefreshSupernodeBlockedBitwise:
// the ND blocks of the Table I suite, the G2_Circuit-, Xyce1- and
// hcircuit-class benchmark patterns, and synthetic dense-ish blocks.
func bitwiseCases(tb testing.TB) []snodeCase {
	var cases []snodeCase
	for _, m := range matgen.TableISuite(1) {
		cases = append(cases, ndSnodeCases(tb, m.Name, m.Gen())...)
	}
	for _, p := range []struct {
		name string
		prm  matgen.CircuitParams
	}{
		{"bench-grid3d", matgen.CircuitParams{N: 2700, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 120}},
		{"bench-xyce", matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111}},
		{"bench-hcircuit", matgen.CircuitParams{N: 4800, BTFPct: 13, Blocks: 80, Core: matgen.CoreGrid, ExtraDensity: 0.3, Seed: 117}},
	} {
		cases = append(cases, ndSnodeCases(tb, p.name, matgen.Circuit(p.prm))...)
	}
	rng := rand.New(rand.NewSource(69))
	for _, n := range []int{60, 150} {
		for _, fill := range []float64{0.05, 0.15, 0.35} {
			a := denseishCSC(rng, n, fill, true)
			xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 8, 64)
			cases = append(cases, snodeCase{fmt.Sprintf("denseish-%d-%g", n, fill), a, xsup})
		}
	}
	return cases
}

// TestRefreshSupernodeBlockedBitwise pins the blocked outside update to the
// column-at-a-time reference bit for bit, with the blocked path driven on
// every wide supernode regardless of the density rule: full refresh,
// selective refresh with every column stamped, and selective refresh with
// one column stamped. The production rule mix must match too.
func TestRefreshSupernodeBlockedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	ws := NewWorkspace(1)
	var marked, unmarked int
	for _, c := range bitwiseCases(t) {
		n := c.a.N
		var ref, blk, rule Factors
		for _, f := range []*Factors{&ref, &blk, &rule} {
			if err := FactorInto(f, c.a, c.xsup, 0, Options{}, ws); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for s, b := range rule.snBlocked {
			if c.xsup[s+1]-c.xsup[s] > 1 {
				if b {
					marked++
				} else {
					unmarked++
				}
			}
		}
		forceBlocked(&blk)

		a2 := perturbSamePattern(rng, c.a)
		if err := ref.refactorSupernodalReference(a2, ws, nil, 0, nil); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if err := blk.Refactor(a2, ws); err != nil {
			t.Fatalf("%s: blocked: %v", c.name, err)
		}
		assertBitsEqual(t, &ref, &blk, c.name+" full")
		if err := rule.Refactor(a2, ws); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertBitsEqual(t, &ref, &rule, c.name+" full, density rule")

		stamp := make([]uint64, n)
		rrRef, rrBlk := make([]bool, n), make([]bool, n)
		for i := range stamp {
			stamp[i] = 1
		}
		a3 := perturbSamePattern(rng, c.a)
		if err := ref.refactorSupernodalReference(a3, ws, stamp, 1, rrRef); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if err := blk.RefactorSelective(a3, ws, stamp, 1, rrBlk); err != nil {
			t.Fatalf("%s: blocked: %v", c.name, err)
		}
		assertBitsEqual(t, &ref, &blk, c.name+" selective, all stamped")

		col := n / 2
		a4 := a3.Clone()
		for p := a4.Colptr[col]; p < a4.Colptr[col+1]; p++ {
			a4.Values[p] *= 1.5
		}
		stamp[col] = 2
		if err := ref.refactorSupernodalReference(a4, ws, stamp, 2, rrRef); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if err := blk.RefactorSelective(a4, ws, stamp, 2, rrBlk); err != nil {
			t.Fatalf("%s: blocked: %v", c.name, err)
		}
		assertBitsEqual(t, &ref, &blk, c.name+" selective, one column stamped")
		for k := range rrRef {
			if rrRef[k] != rrBlk[k] {
				t.Fatalf("%s: rerun[%d] = %v, reference %v", c.name, k, rrBlk[k], rrRef[k])
			}
		}
	}
	if marked == 0 || unmarked == 0 {
		t.Fatalf("density rule marks %d wide supernodes blocked and %d not: want both kinds covered", marked, unmarked)
	}
}

// TestRefactorSupernodalRejectsPartition: a factor whose supernode
// partition does not span 0..n must fail the refresh with the partition
// error instead of silently refreshing nothing. (A nil partition is the
// column layout.)
func TestRefactorSupernodalRejectsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 40
	a := denseishCSC(rng, n, 0.2, true)
	xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 8, 64)
	f := &Factors{}
	if err := FactorInto(f, a, xsup, 0, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	stamp := make([]uint64, n)
	rerun := make([]bool, n)
	for _, bad := range []struct {
		name   string
		snodes []int
	}{{"truncated", xsup[:len(xsup)-1]}, {"not from 0", xsup[1:]}} {
		f.Snodes = bad.snodes
		if err := f.Refactor(a, nil); err == nil || !strings.Contains(err.Error(), "does not cover") {
			t.Fatalf("%s partition: Refactor err = %v", bad.name, err)
		}
		if err := f.RefactorSelective(a, nil, stamp, 0, rerun); err == nil || !strings.Contains(err.Error(), "does not cover") {
			t.Fatalf("%s partition: RefactorSelective err = %v", bad.name, err)
		}
	}
}

// FuzzRefactorSupernodal: on a random square pattern with random values
// (signed zeros and non-finite values included) and a relaxed supernode
// partition, the blocked refresh on every wide supernode must never panic
// and must match the reference bit for bit — or fail with the same error.
// The reference is pure Go with its own elimination loop, so on amd64 it
// is an oracle independent of the vector kernels; under -race the blocked
// side runs the Go row loops instead. The seeds after the first three were
// picked so that, together, their refreshes reach panels and wide-source
// below blocks of every row count 1–7 (mod 8) — axpy's 4-value and scalar
// tails, runUpdate's 2-row tile and its odd last row — and wide runs of
// every length from snWideRun to snTileCols. Each input is also refreshed
// as a dense-built factor, the single supernode [0, n), against the
// column-at-a-time reference. First, FactorInto then Refactor on the same
// values must be a bitwise no-op, column at a time and over the fuzzed
// partition: math.Float64bits-equal with every outside update column at a
// time, and equal up to NaN payloads under the density rule's blocked
// update.
func FuzzRefactorSupernodal(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(60), uint8(8), uint8(16), uint8(0))
	f.Add(int64(2), uint8(70), uint8(20), uint8(4), uint8(64), uint8(3))
	f.Add(int64(3), uint8(12), uint8(200), uint8(16), uint8(5), uint8(40))
	f.Add(int64(1619), uint8(157), uint8(13), uint8(176), uint8(7), uint8(2))
	f.Add(int64(1190), uint8(248), uint8(13), uint8(239), uint8(120), uint8(3))
	f.Add(int64(88), uint8(74), uint8(14), uint8(155), uint8(150), uint8(4))
	f.Add(int64(69), uint8(223), uint8(13), uint8(254), uint8(179), uint8(27))
	f.Add(int64(399), uint8(224), uint8(21), uint8(31), uint8(3), uint8(7))
	// A NaN whose payload the blocked update picks differently from the
	// column kernels.
	f.Add(int64(-70), uint8(168), uint8(3), uint8(67), uint8(185), uint8(105))
	f.Fuzz(func(t *testing.T, seed int64, n8, fill8, relax8, maxw8, special8 uint8) {
		n := 1 + int(n8)%90
		fill := float64(fill8) / 255
		special := float64(special8) / 255 / 4
		rng := rand.New(rand.NewSource(seed))
		value := func() float64 {
			if rng.Float64() < special {
				return []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e-300}[rng.Intn(5)]
			}
			return rng.NormFloat64()
		}
		coo := sparse.NewCOO(n, n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					coo.Add(i, j, 4+rng.Float64())
				} else if rng.Float64() < fill {
					coo.Add(i, j, value())
				}
			}
		}
		a := coo.ToCSC(false)
		xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 1+int(relax8)%16, 1+int(maxw8)%64)
		ws := NewWorkspace(n)
		// One arithmetic: a refresh on the values FactorInto saw is a
		// bitwise no-op, column at a time and over the fuzzed partition.
		// With every outside update column at a time the bits match
		// exactly, NaN payloads included; the blocked update's tile
		// kernels may pick another NaN's payload (see assertBitsEqual).
		for _, part := range [][]int{nil, xsup} {
			var fc Factors
			if FactorInto(&fc, a, part, 0, Options{}, ws) != nil {
				continue
			}
			checkFactorInvariants(t, &fc)
			ctx := fmt.Sprintf("partition %v: refresh on the factored values", part != nil)
			cols, rule := cloneFactors(&fc), cloneFactors(&fc)
			cols.snBlocked = make([]bool, len(fc.snBlocked))
			for _, rf := range []*Factors{cols, rule} {
				if err := rf.Refactor(a, ws); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			}
			assertSameBits(t, &fc, cols, ctx)
			assertBitsEqual(t, &fc, rule, ctx+", density rule")
		}
		var ref, blk Factors
		for _, fc := range []*Factors{&ref, &blk} {
			if err := FactorInto(fc, a, xsup, 0, Options{}, ws); err != nil {
				return
			}
			checkFactorInvariants(t, fc)
		}
		a2 := a.Clone()
		for i := range a2.Values {
			a2.Values[i] = value()
		}
		errRef := ref.refactorSupernodalReference(a2, ws, nil, 0, nil)
		forceBlocked(&blk)
		errBlk := blk.Refactor(a2, ws)
		if fmt.Sprint(errRef) != fmt.Sprint(errBlk) {
			t.Fatalf("errors diverge: reference %v, blocked %v", errRef, errBlk)
		}
		assertBitsEqual(t, &ref, &blk, "fuzz")

		// A failed column reference has already overwritten the columns
		// before the zero pivot, the panel nothing: only errors compare.
		var dref, dn Factors
		for _, fc := range []*Factors{&dref, &dn} {
			if err := FactorDenseInto(fc, a, Options{}, ws); err != nil {
				return
			}
			checkFactorInvariants(t, fc)
		}
		errRef, errDn := dref.refactorColumns(a2, ws), dn.Refactor(a2, ws)
		if fmt.Sprint(errRef) != fmt.Sprint(errDn) {
			t.Fatalf("dense-built errors diverge: column reference %v, panel %v", errRef, errDn)
		}
		if errRef == nil {
			assertBitsEqual(t, &dref, &dn, "fuzz dense-built")
		}
	})
}
