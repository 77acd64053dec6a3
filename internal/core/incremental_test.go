package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gp"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// assertSameFactors compares every factored value of two numerics bit for
// bit (math.Float64bits, so +0 and −0 differ and a NaN matches only the
// same NaN): small-block L/U values and pivots, each fine-ND block's
// diagonal factors, lower and upper off-diagonal blocks, and the permuted
// values. Factor and every refresh share one arithmetic
// (TestFactorRefactorBitwise), so a fresh numeric compares with a
// refreshed one.
func assertSameFactors(t testing.TB, want, got *Numeric, ctx string) {
	t.Helper()
	sym := want.Sym
	cmpVals := func(a, b []float64, what string) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s: %d vs %d entries", ctx, what, len(b), len(a))
		}
		for i, v := range a {
			if math.Float64bits(b[i]) != math.Float64bits(v) {
				t.Fatalf("%s: %s diverges at entry %d: %v vs %v", ctx, what, i, b[i], v)
			}
		}
	}
	cmpCSC := func(a, b *sparse.CSC, what string) {
		t.Helper()
		if a == nil && b == nil {
			return
		}
		cmpVals(a.Values, b.Values, what)
	}
	cmpFactors := func(a, b *gp.Factors, what string) {
		t.Helper()
		for i, p := range a.P {
			if b.P[i] != p {
				t.Fatalf("%s: %s pivot %d: %d vs %d", ctx, what, i, b.P[i], p)
			}
		}
		cmpCSC(a.L, b.L, what+" L")
		cmpCSC(a.U, b.U, what+" U")
	}
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		switch sym.kind[blk] {
		case blockSmall:
			cmpFactors(want.small[blk], got.small[blk], "small block")
		case blockND:
			w, g := want.nd[blk], got.nd[blk]
			for b := range w.diag {
				if w.diag[b] != nil {
					cmpFactors(w.diag[b], g.diag[b], "nd diag")
				}
			}
			for i := range w.lower {
				for j := range w.lower[i] {
					if w.lower[i][j] != nil {
						cmpCSC(w.lower[i][j], g.lower[i][j], "nd lower")
					}
					if w.upper[i][j] != nil {
						cmpCSC(w.upper[i][j], g.upper[i][j], "nd upper")
					}
				}
			}
		}
	}
	// The solve also reads permuted off-block values: compare them too.
	cmpVals(want.Perm.Values, got.Perm.Values, "permuted values")
}

// refreshFull is the full-sweep twin of Refactor: every value gathered and
// every block refreshed, whatever changed. It is the reference the partial
// refreshes are pinned against (a Refactor of unchanged values touches
// nothing).
func refreshFull(num *Numeric, a *sparse.CSC) error {
	num.sweep.drain()
	return num.fullSweep(context.Background(), modeRefresh, a)
}

// TestRefactorPartialSuiteEquivalence is the suite-wide equivalence sweep:
// for every matgen class, RefactorPartial (explicit change sets) and
// Refactor (its own change discovery) must produce factors bitwise
// identical to a full refresh of the same matrix, across change-set
// fractions from a single column to everything, both clustered and
// scattered.
func TestRefactorPartialSuiteEquivalence(t *testing.T) {
	suite := matgen.TableISuite(0.1)
	suite = append(suite, matgen.TableIISuite(0.12)...)
	fracs := []float64{0.002, 0.05, 0.3}
	for _, m := range suite {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			base := m.Gen()
			opts := optsWithThreads(4)
			sym, err := Analyze(base, opts)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			var nums [3]*Numeric // full, partial, discovered
			for i := range nums {
				if nums[i], err = Factor(base, sym); err != nil {
					t.Fatalf("factor: %v", err)
				}
				// Normalize to refactorization arithmetic.
				if err := refreshFull(nums[i], base); err != nil {
					t.Fatalf("warm refactor: %v", err)
				}
			}
			cur := base
			for step, frac := range fracs {
				clustered := step%2 == 0
				cols := matgen.ChangeSet(base.N, frac, int64(31*step+7), clustered)
				next := matgen.PerturbColumns(cur, cols, step+1, 555)
				if err := refreshFull(nums[0], next); err != nil {
					t.Fatalf("full refactor step %d: %v", step, err)
				}
				if err := nums[1].RefactorPartial(next, cols); err != nil {
					t.Fatalf("partial refactor step %d: %v", step, err)
				}
				if err := nums[2].Refactor(next); err != nil {
					t.Fatalf("refactor step %d: %v", step, err)
				}
				assertSameFactors(t, nums[0], nums[1], "partial")
				assertSameFactors(t, nums[0], nums[2], "refactor")
				cur = next
			}
			solveCheck(t, cur, nums[1], 1e-6)
		})
	}
}

// TestRefactorPartialDenseNDBitwise locks the incremental contract down on
// dense-path numerics: a fine-ND hierarchy carrying dense-tagged separator
// kernels must keep RefactorPartial and a partial Refactor bitwise
// identical to the full refresh — the dirty-kernel routing of the 2D sweep refreshes
// dense-built (structural fully dense) blocks through the same in-place
// kernels, so skipping clean work can never change a bit.
func TestRefactorPartialDenseNDBitwise(t *testing.T) {
	base := grid3dCircuit(900, 20, 81)
	opts := optsWithThreads(4)
	sym, err := Analyze(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sym.DenseKernels() == 0 {
		t.Fatal("test matrix tagged no dense kernels; bitwise sweep would be vacuous")
	}
	var nums [3]*Numeric // full, partial, discovered
	for i := range nums {
		if nums[i], err = Factor(base, sym); err != nil {
			t.Fatal(err)
		}
		if err := refreshFull(nums[i], base); err != nil {
			t.Fatal(err)
		}
	}
	cur := base
	for step, frac := range []float64{0.002, 0.05, 0.3} {
		clustered := step%2 == 0
		cols := matgen.ChangeSet(base.N, frac, int64(17*step+3), clustered)
		next := matgen.PerturbColumns(cur, cols, step+1, 661)
		if err := refreshFull(nums[0], next); err != nil {
			t.Fatalf("full refactor step %d: %v", step, err)
		}
		if err := nums[1].RefactorPartial(next, cols); err != nil {
			t.Fatalf("partial refactor step %d: %v", step, err)
		}
		if err := nums[2].Refactor(next); err != nil {
			t.Fatalf("refactor step %d: %v", step, err)
		}
		assertSameFactors(t, nums[0], nums[1], "dense partial")
		assertSameFactors(t, nums[0], nums[2], "dense refactor")
		cur = next
	}
	solveCheck(t, cur, nums[1], 1e-6)
}

// TestRefactorPartialExtraColumns checks that listing unchanged or
// duplicate columns in the change set is harmless: the factors still match
// a full refresh bitwise.
func TestRefactorPartialExtraColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randCircuit(rng, 400, 0.6)
	full, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	part, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range []*Numeric{full, part} {
		if err := refreshFull(num, base); err != nil {
			t.Fatal(err)
		}
	}
	cols := []int{5, 5, 120, 233}
	next := matgen.PerturbColumns(base, []int{5, 233}, 1, 88)
	if err := refreshFull(full, next); err != nil {
		t.Fatal(err)
	}
	if err := part.RefactorPartial(next, cols); err != nil {
		t.Fatal(err)
	}
	assertSameFactors(t, full, part, "extra columns")
}

// TestRefactorPartialNoChange: an empty change set (and an identical matrix
// through Refactor) must visit no block at all.
func TestRefactorPartialNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := randCircuit(rng, 350, 0.6)
	num, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := num.Refactor(base); err != nil {
		t.Fatal(err)
	}
	visited := 0
	num.hooks = &schedHooks{blockStart: func(blk int, nd bool) { visited++ }}
	if err := num.RefactorPartial(base, nil); err != nil {
		t.Fatalf("empty change set: %v", err)
	}
	if err := num.Refactor(base); err != nil {
		t.Fatalf("refactor with identical values: %v", err)
	}
	num.hooks = nil
	if visited != 0 {
		t.Fatalf("no-change refresh visited %d blocks, want 0", visited)
	}
	solveCheck(t, base, num, 1e-7)
}

// TestRefactorPartialPivotFallback drifts a small block's pivot to zero
// through a change set: RefactorPartial must fall back to a fresh pivoting
// factorization of that block alone, bitwise identical to the full
// refresh's own fallback, and recover on the next step.
func TestRefactorPartialPivotFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randCircuit(rng, 300, 0.5)
	full, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	part, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range []*Numeric{full, part} {
		if err := refreshFull(num, base); err != nil {
			t.Fatal(err)
		}
	}
	sym := full.Sym
	target := -1
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		if sym.kind[blk] != blockSmall || r1-r0 < 2 {
			continue
		}
		if full.Perm.ExtractBlock(r0, r1, r0, r0+1).Nnz() >= 2 {
			target = blk
			break
		}
	}
	if target == -1 {
		t.Fatal("no suitable small block in test matrix")
	}
	r0 := sym.BlockPtr[target]
	old := part.small[target]
	orow := sym.RowPerm[r0+old.P[0]]
	ocol := sym.ColPerm[r0]
	a2 := base.Clone()
	zeroed := false
	for p := a2.Colptr[ocol]; p < a2.Colptr[ocol+1]; p++ {
		if a2.Rowidx[p] == orow {
			a2.Values[p] = 0
			zeroed = true
		}
	}
	if !zeroed {
		t.Fatal("pivot entry not found in original coordinates")
	}
	if err := refreshFull(full, a2); err != nil {
		t.Fatalf("full refactor with drifted pivot: %v", err)
	}
	if err := part.RefactorPartial(a2, []int{ocol}); err != nil {
		t.Fatalf("partial refactor with drifted pivot: %v", err)
	}
	if part.small[target] == old {
		t.Fatal("expected the fallback to replace the block's factors")
	}
	assertSameFactors(t, full, part, "pivot fallback")
	solveCheck(t, a2, part, 1e-7)
	// Next step rides the fast path on the new pivots.
	a3 := matgen.PerturbColumns(a2, []int{ocol}, 2, 77)
	if err := refreshFull(full, a3); err != nil {
		t.Fatal(err)
	}
	if err := part.RefactorPartial(a3, []int{ocol}); err != nil {
		t.Fatalf("partial refactor after fallback: %v", err)
	}
	assertSameFactors(t, full, part, "after fallback")
}

// TestRefactorPartialPoisonRecovery: after a failed sweep the incremental
// path must not trust its change set; the next RefactorPartial runs a full
// refresh and recovers a consistent factorization.
func TestRefactorPartialPoisonRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := randCircuit(rng, 200, 0.5)
	num, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := num.Refactor(base); err != nil {
		t.Fatal(err)
	}
	bad := base.Clone()
	for p := bad.Colptr[5]; p < bad.Colptr[6]; p++ {
		bad.Values[p] = 0
	}
	if err := num.RefactorPartial(bad, []int{5}); !errors.Is(err, gp.ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Recovery: hand back the good matrix with the same change set. The
	// poisoned state must force a full refresh (the bad sweep may have
	// altered blocks beyond column 5's own).
	if err := num.RefactorPartial(base, []int{5}); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	solveCheck(t, base, num, 1e-7)
}

// TestRefactorPartialGuards checks argument validation: dimension mismatch,
// out-of-range columns, and pattern drift in a changed column.
func TestRefactorPartialGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	base := randCircuit(rng, 200, 0.5)
	num, err := FactorDirect(base, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := num.RefactorPartial(sparse.NewCSC(3, 3, 0), nil); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := num.RefactorPartial(base, []int{-1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := num.RefactorPartial(base, []int{base.N}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// A near-total set degrades to the full sweep, but only after its
	// indices passed the same range check.
	if err := num.RefactorPartial(base, append(sparse.IdentityPerm(base.N), -1)); err == nil {
		t.Fatal("expected out-of-range error from a near-total change set")
	}
	// Move an entry of a column to another row: the changed-column pattern
	// verification must reject it.
	shifted := base.Clone()
	moved := -1
	for j := 0; j < shifted.N && moved < 0; j++ {
		p := shifted.Colptr[j+1] - 1
		if p < shifted.Colptr[j] {
			continue
		}
		if r := shifted.Rowidx[p]; r+1 < shifted.M {
			shifted.Rowidx[p] = r + 1
			moved = j
		}
	}
	if moved < 0 {
		t.Fatal("could not construct a pattern variant")
	}
	if err := num.RefactorPartial(shifted, []int{moved}); err == nil {
		t.Fatal("expected pattern mismatch error for the changed column")
	}
	// Still healthy afterwards.
	if err := num.RefactorPartial(base, []int{0}); err != nil {
		t.Fatal(err)
	}
	solveCheck(t, base, num, 1e-7)
}

// TestRefactorPartialZeroAllocSteadyState pins the incremental guarantee:
// once the pipeline and change-tracking state exist, a serial
// RefactorPartial performs zero allocations, and so does a partial
// Refactor — and a Refactor of unchanged values, which reworks no block.
func TestRefactorPartialZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	base := randCircuit(rng, 400, 0.6)
	num, err := FactorDirect(base, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if num.Sym.NumNDBlocks() == 0 {
		t.Fatal("want an ND block in the zero-alloc sweep")
	}
	cols := matgen.ChangeSet(base.N, 0.02, 3, true)
	steps := make([]*sparse.CSC, 4)
	for i := range steps {
		steps[i] = matgen.PerturbColumns(base, cols, i+1, 99)
	}
	for _, s := range steps {
		if err := num.RefactorPartial(s, cols); err != nil {
			t.Fatal(err)
		}
		if err := num.Refactor(s); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := num.RefactorPartial(steps[i%len(steps)], cols); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RefactorPartial allocates: %v allocs/op", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		i++
		if err := num.Refactor(steps[i%len(steps)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state partial Refactor allocates: %v allocs/op", allocs)
	}
	same := steps[i%len(steps)]
	allocs = testing.AllocsPerRun(20, func() {
		if err := num.Refactor(same); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || num.LastDirtyBlocks() != 0 {
		t.Fatalf("unchanged Refactor: %v allocs/op, %d dirty blocks, want 0 and 0", allocs, num.LastDirtyBlocks())
	}
	solveCheck(t, steps[i%len(steps)], num, 1e-7)
}

// BenchmarkRefactorPartial measures the incremental sweep at a small
// clustered change fraction against the same matrix's partial Refactor
// (change discovery plus the same sweep) and full refresh.
func BenchmarkRefactorPartial(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	base := randCircuit(rng, 2000, 0.5)
	num, err := FactorDirect(base, optsWithThreads(1))
	if err != nil {
		b.Fatal(err)
	}
	cols := matgen.ChangeSet(base.N, 0.01, 5, true)
	steps := make([]*sparse.CSC, 4)
	for i := range steps {
		steps[i] = matgen.PerturbColumns(base, cols, i+1, 99)
		if err := num.RefactorPartial(steps[i], cols); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("partial-1pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := num.RefactorPartial(steps[i%len(steps)], cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refactor-1pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := num.Refactor(steps[i%len(steps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := refreshFull(num, steps[i%len(steps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRefactorPartialRejectedSetLeavesStateClean pins the
// validate-before-gather contract: a change set rejected partway through
// (valid column listed before an invalid one) must leave resident values
// untouched, so subsequent incremental refreshes stay correct without any
// recovery sweep.
func TestRefactorPartialRejectedSetLeavesStateClean(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	base := randCircuit(rng, 300, 0.5)
	num, err := FactorDirect(base, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := num.Refactor(base); err != nil {
		t.Fatal(err)
	}
	// a2 perturbs column 1; the change set lists it before an out-of-range
	// column, so the call must reject WITHOUT gathering column 1.
	a2 := matgen.PerturbColumns(base, []int{1}, 1, 55)
	if err := num.RefactorPartial(a2, []int{1, -1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// Resident values must still be base's: a refresh of a matrix derived
	// from base, with a change set that does not cover column 1, must match
	// a from-scratch factorization of that matrix.
	b2 := matgen.PerturbColumns(base, []int{2}, 1, 66)
	if err := num.RefactorPartial(b2, []int{2}); err != nil {
		t.Fatal(err)
	}
	solveCheck(t, b2, num, 1e-7)
}
