package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// snodeCircuit builds a moderate-fill 3D-stencil circuit whose ND leaf
// diagonals sit below the dense-tag threshold but carry elimination-tree
// supernodes — the regime the supernodal panels target.
func snodeCircuit(n int, seed int64) *sparse.CSC {
	return matgen.Circuit(matgen.CircuitParams{
		N: n, BTFPct: 0, Blocks: 1 + n/50,
		Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: seed,
	})
}

// TestSupernodeAblationParity: the supernodal path must be live on the
// stencil circuits (detected at Analyze, hit at numeric time, on both the
// fresh and refresh sweeps), the NoSupernodes ablation must kill it
// completely, and both configurations must solve to equivalent residuals.
func TestSupernodeAblationParity(t *testing.T) {
	a := snodeCircuit(900, 91)
	opts := optsWithThreads(4)
	sym, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Supernodes() == 0 {
		t.Fatal("no supernodes detected on a 3D-stencil circuit; parity sweep would be vacuous")
	}
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	freshHits := num.SupernodeHits()
	if freshHits == 0 {
		t.Fatal("supernodes detected but the fresh sweep never hit the supernodal path")
	}
	if err := refreshFull(num, a); err != nil {
		t.Fatal(err)
	}
	if num.SupernodeHits() <= freshHits {
		t.Fatalf("refresh sweep did not route through the supernodal path (hits %d -> %d)",
			freshHits, num.SupernodeHits())
	}

	oopts := opts
	oopts.NoSupernodes = true
	osym, err := Analyze(a, oopts)
	if err != nil {
		t.Fatal(err)
	}
	if osym.Supernodes() != 0 {
		t.Fatalf("NoSupernodes still detects %d supernodes", osym.Supernodes())
	}
	onum, err := Factor(a, osym)
	if err != nil {
		t.Fatal(err)
	}
	if onum.SupernodeHits() != 0 {
		t.Fatalf("NoSupernodes numeric took %d supernodal hits", onum.SupernodeHits())
	}
	sres := relResidual(a, num, 91)
	ores := relResidual(a, onum, 91)
	if math.IsNaN(sres) || (sres > 1e-8 && sres > 100*ores) {
		t.Fatalf("supernodal residual %.3e vs ablation %.3e", sres, ores)
	}
	solveCheck(t, a, num, 1e-7)

	// Relaxation bound monotonicity is not guaranteed, but a wider bound
	// must still factor and solve correctly.
	wopts := opts
	wopts.SupernodeRelax = 16
	wnum, err := FactorDirect(a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, wnum, 1e-7)
}

// TestRefactorPartialSupernodalBitwise locks the partial-vs-full bitwise
// contract down on supernodal numerics, exactly as the dense-ND variant
// does for dense-built blocks: supernode-granular selective refresh may
// over-refresh clean columns of a dirty supernode, which determinism makes
// bitwise invisible.
func TestRefactorPartialSupernodalBitwise(t *testing.T) {
	base := snodeCircuit(900, 92)
	opts := optsWithThreads(4)
	sym, err := Analyze(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Supernodes() == 0 {
		t.Fatal("no supernodes on the test matrix; bitwise sweep would be vacuous")
	}
	var nums [3]*Numeric // full, partial, auto
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
		cols := matgen.ChangeSet(base.N, frac, int64(13*step+5), clustered)
		next := matgen.PerturbColumns(cur, cols, step+1, 773)
		if err := refreshFull(nums[0], next); err != nil {
			t.Fatalf("full refactor step %d: %v", step, err)
		}
		if err := nums[1].RefactorPartial(next, cols); err != nil {
			t.Fatalf("partial refactor step %d: %v", step, err)
		}
		if err := nums[2].Refactor(next); err != nil {
			t.Fatalf("refactor step %d: %v", step, err)
		}
		assertSameFactors(t, nums[0], nums[1], "supernodal partial")
		assertSameFactors(t, nums[0], nums[2], "supernodal refactor")
		cur = next
	}
	solveCheck(t, cur, nums[1], 1e-6)
}

// TestRefactorFillHeavyDenseRefreshBitwise is the suite-wide lockdown of
// the dense refresh sweeps: on the fill-heavy replicas the refresh path
// must actually route kernels through the dense layer, and RefactorPartial
// must stay bitwise identical to the full refresh through it.
func TestRefactorFillHeavyDenseRefreshBitwise(t *testing.T) {
	fillHeavy := map[string]bool{"G2_Circuit": true, "twotone": true, "onetone1": true}
	for _, m := range matgen.TableISuite(0.3) {
		if !fillHeavy[m.Name] {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			base := m.Gen()
			sym, err := Analyze(base, optsWithThreads(4))
			if err != nil {
				t.Fatal(err)
			}
			if sym.DenseKernels() == 0 {
				t.Fatalf("%s tagged no dense kernels; dense-refresh sweep would be vacuous", m.Name)
			}
			var nums [2]*Numeric // full, partial
			for i := range nums {
				if nums[i], err = Factor(base, sym); err != nil {
					t.Fatal(err)
				}
				if err := refreshFull(nums[i], base); err != nil {
					t.Fatal(err)
				}
			}
			preHits := nums[0].DenseKernelHits()
			cols := matgen.ChangeSet(base.N, 0.05, 19, true)
			next := matgen.PerturbColumns(base, cols, 1, 881)
			if err := refreshFull(nums[0], next); err != nil {
				t.Fatal(err)
			}
			if nums[0].DenseKernelHits() <= preHits {
				t.Fatal("refresh sweep did not route any kernel through the dense layer")
			}
			if err := nums[1].RefactorPartial(next, cols); err != nil {
				t.Fatal(err)
			}
			assertSameFactors(t, nums[0], nums[1], "fill-heavy dense refresh")
			solveCheck(t, next, nums[1], 1e-6)
		})
	}
}

// TestRefactorDenseRefreshZeroAlloc pins the tentpole's allocation
// guarantee: the steady-state full refresh and RefactorPartial stay at zero
// allocs/op when the sweep dispatches dense panel refreshes (dense-tagged
// diagonal) and supernodal panel refreshes (stencil leaves) — the pooled
// panels and in-place TRSM leave nothing to allocate.
func TestRefactorDenseRefreshZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *sparse.CSC
		ck   func(t *testing.T, sym *Symbolic, num *Numeric)
	}{
		{
			name: "dense-diag",
			gen: func() *sparse.CSC {
				rng := rand.New(rand.NewSource(93))
				return denseBlockCSC(rng, 160, 0.3)
			},
			ck: func(t *testing.T, sym *Symbolic, num *Numeric) {
				if sym.DenseKernels() == 0 {
					t.Fatal("want a dense-tagged kernel")
				}
			},
		},
		{
			name: "supernodal-leaf",
			gen:  func() *sparse.CSC { return snodeCircuit(500, 94) },
			ck: func(t *testing.T, sym *Symbolic, num *Numeric) {
				if sym.Supernodes() == 0 || num.SupernodeHits() == 0 {
					t.Fatalf("want a live supernodal leaf (detected %d, hits %d)",
						sym.Supernodes(), num.SupernodeHits())
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := tc.gen()
			sym, err := Analyze(base, optsWithThreads(1))
			if err != nil {
				t.Fatal(err)
			}
			num, err := Factor(base, sym)
			if err != nil {
				t.Fatal(err)
			}
			tc.ck(t, sym, num)
			// Perturb only the change-set columns so RefactorPartial's
			// contract (cols covers every changed column) holds.
			cols := matgen.ChangeSet(base.N, 0.02, 7, true)
			steps := make([]*sparse.CSC, 4)
			for i := range steps {
				steps[i] = matgen.PerturbColumns(base, cols, i+1, 95)
			}
			for _, s := range steps {
				if err := refreshFull(num, s); err != nil {
					t.Fatal(err)
				}
				if err := num.RefactorPartial(s, cols); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				i++
				if err := refreshFull(num, steps[i%len(steps)]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state full refresh allocates: %v allocs/op", allocs)
			}
			allocs = testing.AllocsPerRun(20, func() {
				i++
				if err := num.RefactorPartial(steps[i%len(steps)], cols); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state RefactorPartial allocates: %v allocs/op", allocs)
			}
			solveCheck(t, steps[i%len(steps)], num, 1e-7)
		})
	}
}

// TestDenseRefreshPivotDriftFallback drifts the reused pivot of a
// dense-refreshed diagonal to zero (boosting an alternative row): the
// refresh must take the per-block fresh-pivot fallback, rebuild the dense
// hierarchy, and solve; the supernodal variant must do the same.
func TestDenseRefreshPivotDriftFallback(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *sparse.CSC
	}{
		{"dense-diag", func() *sparse.CSC {
			rng := rand.New(rand.NewSource(96))
			return denseBlockCSC(rng, 160, 0.3)
		}},
		{"supernodal-leaf", func() *sparse.CSC { return snodeCircuit(500, 97) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := tc.gen()
			sym, err := Analyze(base, optsWithThreads(1))
			if err != nil {
				t.Fatal(err)
			}
			num, err := Factor(base, sym)
			if err != nil {
				t.Fatal(err)
			}
			if err := num.Refactor(base); err != nil {
				t.Fatal(err)
			}
			ndBlk := -1
			for blk := 0; blk < sym.NumBlocks(); blk++ {
				if sym.IsND(blk) {
					ndBlk = blk
				}
			}
			if ndBlk < 0 {
				t.Fatal("test matrix has no ND block")
			}
			r0, _ := sym.BlockRange(ndBlk)
			old := num.nd[ndBlk]
			pivLocal := old.diag[0].P[0] // leaf node 0 starts at ND-local offset 0
			ocol := sym.ColPerm[r0]
			rowPos := make([]int, sym.N)
			for k, r := range sym.RowPerm {
				rowPos[r] = k
			}
			b0, b1 := old.sym.blockRange(0)
			drift := base.Clone()
			zeroed, boosted := false, false
			for p := drift.Colptr[ocol]; p < drift.Colptr[ocol+1]; p++ {
				k := rowPos[drift.Rowidx[p]] - r0
				if k < b0 || k >= b1 {
					continue
				}
				if k == pivLocal {
					drift.Values[p] = 0
					zeroed = true
				} else if !boosted {
					drift.Values[p] = 50
					boosted = true
				}
			}
			if !zeroed || !boosted {
				t.Fatalf("test premise broken (zeroed=%v boosted=%v)", zeroed, boosted)
			}
			before := num.PivotFallbacks()
			if err := num.Refactor(drift); err != nil {
				t.Fatalf("refactor with drifted pivot: %v", err)
			}
			if num.PivotFallbacks() <= before {
				t.Fatal("expected a recorded pivot fallback")
			}
			if num.nd[ndBlk] == old {
				t.Fatal("expected the fallback to rebuild the ND hierarchy")
			}
			// The drift matrix can be badly conditioned under
			// diagonal-preference pivoting (zeroing the pivot and spiking an
			// off-diagonal compounds threshold growth on the stencil class),
			// so judge the fallback against what it promises: parity with a
			// fresh factorization of the same matrix.
			check := func(a *sparse.CSC, label string) {
				oracle, err := FactorDirect(a, optsWithThreads(1))
				if err != nil {
					t.Fatalf("%s: fresh oracle: %v", label, err)
				}
				res := relResidual(a, num, 1)
				ores := relResidual(a, oracle, 1)
				if math.IsNaN(res) || (res > 1e-6 && res > 100*ores) {
					t.Fatalf("%s: fallback residual %.3e vs fresh oracle %.3e", label, res, ores)
				}
			}
			check(drift, "drifted refresh")
			// The next same-pattern refresh rides the refreshed pivots.
			next := matgen.TransientStep(drift, 2, 98)
			if err := num.Refactor(next); err != nil {
				t.Fatalf("refactor after fallback: %v", err)
			}
			check(next, "post-fallback refresh")
		})
	}
}

// BenchmarkRefactorSupernodal times the full same-pattern refresh at
// Threads 1, library defaults, on every Table I class whose analysis has a
// fine-ND block and on the G2_Circuit-, Xyce1- and hcircuit-class benchmark
// patterns — the per-class evidence for the supernodal refresh kernels. The
// G2_Circuit class also runs the NoSupernodes ablation beside the default.
func BenchmarkRefactorSupernodal(b *testing.B) {
	type input struct {
		name string
		a    *sparse.CSC
	}
	var ins []input
	for _, m := range matgen.TableISuite(1) {
		ins = append(ins, input{m.Name, m.Gen()})
	}
	ins = append(ins,
		input{"bench-grid3d", matgen.Circuit(matgen.CircuitParams{N: 2700, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 120})},
		input{"bench-xyce", matgen.Circuit(matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111})},
		input{"bench-hcircuit", matgen.Circuit(matgen.CircuitParams{N: 4800, BTFPct: 13, Blocks: 80, Core: matgen.CoreGrid, ExtraDensity: 0.3, Seed: 117})},
	)
	run := func(b *testing.B, a *sparse.CSC, noSupernodes bool) {
		opts := DefaultOptions()
		opts.NoSupernodes = noSupernodes
		num, err := FactorDirect(a, opts)
		if err != nil {
			b.Fatal(err)
		}
		steps := []*sparse.CSC{matgen.TransientStep(a, 1, 5), matgen.TransientStep(a, 2, 5)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := num.Refactor(steps[i%len(steps)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, in := range ins {
		sym, err := Analyze(in.a, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if sym.NumNDBlocks() == 0 {
			continue
		}
		if in.name != "G2_Circuit" {
			b.Run(in.name, func(b *testing.B) { run(b, in.a, false) })
			continue
		}
		b.Run(in.name, func(b *testing.B) {
			b.Run("supernodes", func(b *testing.B) { run(b, in.a, false) })
			b.Run("nosupernodes", func(b *testing.B) { run(b, in.a, true) })
		})
	}
}
