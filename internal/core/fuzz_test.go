package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gp"
	"repro/internal/matgen"
)

// FuzzFactorSolve drives randomized sparsity patterns and values (through
// the matgen generators, so every matrix is structurally nonsingular and
// diagonally dominant) across the dense/sparse kernel boundary: for each
// generated matrix and threshold — including the edge values 0 (default),
// a tiny epsilon (everything eligible goes dense), 1 (only estimate-
// saturating kernels) and 2 (nothing, the sparse path through the
// threshold alone) — and across the supernodal dimension (the NoSupernodes
// ablation and relaxation bounds 4/8/16): the blocked-path factorization
// must not panic, must solve to residuals on par with the plain-sparse
// oracle (NoDenseKernels + NoSupernodes), and must agree with it again
// after a same-pattern Refactor and a change-set-restricted
// RefactorPartial.
//
// Run the smoke locally with:
//
//	go test -run xxx -fuzz FuzzFactorSolve -fuzztime=10s ./internal/core
func FuzzFactorSolve(f *testing.F) {
	// Seed corpus: every core kind, every threshold class, serial and
	// parallel, with and without small BTF blocks.
	f.Add(int64(1), uint8(0), uint8(0), uint16(200), uint8(0), uint8(1), uint8(1))
	f.Add(int64(2), uint8(1), uint8(1), uint16(300), uint8(30), uint8(2), uint8(0))
	f.Add(int64(3), uint8(2), uint8(0), uint16(400), uint8(0), uint8(4), uint8(2))
	f.Add(int64(4), uint8(2), uint8(2), uint16(350), uint8(50), uint8(3), uint8(3))
	f.Add(int64(5), uint8(2), uint8(3), uint16(256), uint8(10), uint8(2), uint8(1))
	f.Add(int64(6), uint8(0), uint8(1), uint16(64), uint8(100), uint8(1), uint8(0))
	// Supernode-focused seeds: 3D stencil with moderate extra density and a
	// zero dense threshold, across the relaxation bounds.
	f.Add(int64(7), uint8(2), uint8(0), uint16(440), uint8(0), uint8(4), uint8(2))
	f.Add(int64(8), uint8(2), uint8(0), uint16(380), uint8(20), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, coreSel, thrSel uint8, nSel uint16, btfPct, threads, snSel uint8) {
		n := 64 + int(nSel)%448
		thr := []float64{0, 1e-9, 1, 2}[int(thrSel)%4]
		a := matgen.Circuit(matgen.CircuitParams{
			N:            n,
			BTFPct:       float64(int(btfPct) % 101),
			Blocks:       1 + n/40,
			Core:         matgen.CoreKind(int(coreSel) % 3),
			ExtraDensity: float64(((seed%3)+3)%3) * 0.3, // seed may be negative
			Seed:         seed,
		})
		opts := DefaultOptions()
		opts.Threads = 1 + int(threads)%4
		opts.DenseKernelThreshold = thr
		if snSel%4 == 0 {
			opts.NoSupernodes = true
		} else {
			opts.SupernodeRelax = []int{4, 8, 16}[int(snSel)%4-1]
		}
		sym, err := Analyze(a, opts)
		if err != nil {
			t.Skip() // degenerate structure; nothing to compare
		}
		num, derr := Factor(a, sym)
		oOpts := opts
		oOpts.NoDenseKernels = true
		oOpts.NoSupernodes = true
		oracle, serr := FactorDirect(a, oOpts)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("dense/sparse disagree on factorability: dense %v, sparse %v", derr, serr)
		}
		if derr != nil {
			t.Skip()
		}
		check := func(stage string) {
			dres := relResidual(a, num, seed)
			sres := relResidual(a, oracle, seed)
			if math.IsNaN(dres) || (dres > 1e-6 && dres > 100*sres) {
				t.Fatalf("%s: dense-path residual %.3e, oracle %.3e (threshold %g, %d dense kernels)",
					stage, dres, sres, thr, sym.DenseKernels())
			}
		}
		check("factor")

		// Same-pattern refresh across the kernel boundary.
		a = matgen.TransientStep(a, 1, seed)
		if err := num.Refactor(a); err != nil {
			t.Skip() // pivot sequence defeated and fallback also singular
		}
		if err := oracle.Refactor(a); err != nil {
			t.Skip()
		}
		check("refactor")

		// Change-set-restricted refresh: perturb a clustered slice of
		// columns and send only those through RefactorPartial.
		cols := matgen.ChangeSet(n, 0.05, seed, seed%2 == 0)
		a = matgen.PerturbColumns(a, cols, 2, seed)
		if err := num.RefactorPartial(a, cols); err != nil {
			t.Skip()
		}
		if err := oracle.Refactor(a); err != nil {
			t.Skip()
		}
		check("refactor-partial")
	})
}

// fuzzThreads maps a fuzzed byte onto the thread counts the refresh fuzz
// targets draw from: 1 (one leaf, the serial sweep), 2 and 4 (two and four
// leaves, where the per-kernel dirty mask of the 2D hierarchy decides what
// a partial sweep reruns).
func fuzzThreads(b uint8) int { return []int{1, 2, 4}[int(b)%3] }

// FuzzRefactor drives Refactor's own change discovery through a restamp
// sequence on a random matgen class, at Threads 1, 2 or 4, against a twin
// that runs a full refresh (refreshFull) every step: after each step the
// factors and permuted values of the two must agree bit for bit, or both
// calls must fail with the same error class. Each script byte is one step: a restamp
// below or above the half-the-columns rule, flips of stored zeros between
// +0 and −0, NaNs restamped with the same bits, planted infinities — or an
// interleaved full refresh, RefactorPartial or FactorInto on the subject.
// After a FactorInto or a pivot-drift fallback, both of which re-pivot,
// both sides run a full refresh once more and must still agree.
//
// Run the smoke locally with:
//
//	go test -run xxx -fuzz FuzzRefactor -fuzztime=10s ./internal/core
func FuzzRefactor(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{0, 2, 2, 3, 3, 1, 0})
	f.Add(int64(2), uint8(10), uint8(1), []byte{3, 4, 0, 5, 6, 7, 2, 1})
	f.Add(int64(3), uint8(16), uint8(1), []byte{2, 6, 2, 0, 3, 3, 4, 1, 0})
	f.Add(int64(4), uint8(21), uint8(0), []byte{1, 0, 7, 0, 5, 2})
	f.Add(int64(5), uint8(10), uint8(2), []byte{3, 6, 0, 4, 1, 5, 2})
	f.Fuzz(func(t *testing.T, seed int64, class, threads uint8, script []byte) {
		suite := matgen.TableISuite(0.05)
		a := suite[int(class)%len(suite)].Gen()
		sym, err := Analyze(a, optsWithThreads(fuzzThreads(threads)))
		if err != nil {
			t.Skip()
		}
		var sub, twin *Numeric
		for _, p := range []**Numeric{&sub, &twin} {
			num, err := Factor(a, sym)
			if err != nil {
				t.Skip()
			}
			if err := refreshFull(num, a); err != nil {
				t.Skip()
			}
			*p = num
		}
		errClass := func(err error) string {
			switch {
			case err == nil:
				return "nil"
			case errors.Is(err, gp.ErrSingular):
				return "singular"
			}
			return "other"
		}
		// both runs one call on each side and reports whether both succeeded.
		both := func(ctx string, errSub, errTwin error) bool {
			if errClass(errSub) != errClass(errTwin) {
				t.Fatalf("%s: subject %v, twin %v", ctx, errSub, errTwin)
			}
			return errSub == nil
		}
		rng := rand.New(rand.NewSource(seed))
		nan := math.Float64frombits(0x7ff8_0000_dead_beef)
		if len(script) > 16 {
			script = script[:16]
		}
		for step, op := range script {
			kind := op % 8
			ctx := fmt.Sprintf("step %d (kind %d)", step, kind)
			frac := 0.04
			if kind == 1 {
				frac = 0.6
			}
			cols := matgen.ChangeSet(a.N, frac, rng.Int63(), rng.Intn(2) == 0)
			for _, j := range cols {
				for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
					v, off := a.Values[p], a.Rowidx[p] != j
					switch {
					case kind == 2 && off && v == 0:
						a.Values[p] = math.Copysign(0, -math.Copysign(1, v))
					case kind == 2 && off && rng.Intn(2) == 0:
						a.Values[p] = math.Copysign(0, float64(1-2*rng.Intn(2)))
					case kind == 3 && off && rng.Intn(3) == 0:
						a.Values[p] = nan
					case kind == 4 && off && rng.Intn(4) == 0:
						a.Values[p] = math.Inf(1 - 2*rng.Intn(2))
					case kind < 2 || kind > 4:
						a.Values[p] = v * (0.85 + 0.3*rng.Float64())
					}
				}
			}
			fallbacks := sub.PivotFallbacks() + twin.PivotFallbacks()
			var errSub, errTwin error
			switch kind {
			case 5:
				errSub, errTwin = refreshFull(sub, a), refreshFull(twin, a)
			case 6:
				errSub, errTwin = sub.RefactorPartial(a, cols), refreshFull(twin, a)
			case 7:
				errSub, errTwin = sub.FactorInto(a), twin.FactorInto(a)
			default:
				errSub, errTwin = sub.Refactor(a), refreshFull(twin, a)
			}
			if !both(ctx, errSub, errTwin) {
				return // values unspecified on both sides
			}
			assertSameFactors(t, twin, sub, ctx)
			if kind == 7 || sub.PivotFallbacks()+twin.PivotFallbacks() != fallbacks {
				if !both(ctx+" re-normalize", refreshFull(sub, a), refreshFull(twin, a)) {
					return
				}
				assertSameFactors(t, twin, sub, ctx+" re-normalize")
			}
		}
	})
}

// FuzzRefactorPartial drives RefactorPartial with adversarial change sets
// on a random matgen class, at Threads 1, 2 or 4, against a twin that runs
// a full refresh (refreshFull) every step. Each script byte is one step
// that restamps a few columns and lists them: as they are, with
// duplicates, unsorted, not at all (an empty set for an unchanged matrix),
// padded with unchanged columns, padded past half the columns (the
// full-sweep degrade), or with an out-of-range index on a small or a
// near-total set. After each step the factors, permuted values
// and the solution of one right-hand side must agree bit for bit, or both
// calls must fail with the same error class. An out-of-range index must be
// rejected before anything is gathered: the subject keeps the twin's bits,
// and the restamp is undone. As in FuzzRefactor, after a pivot-drift
// fallback both sides run a full refresh once more before they compare.
//
// Run the smoke locally with:
//
//	go test -run xxx -fuzz FuzzRefactorPartial -fuzztime=10s ./internal/core
func FuzzRefactorPartial(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), uint8(10), uint8(1), []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(int64(3), uint8(16), uint8(1), []byte{1, 1, 6, 2, 5, 0})
	f.Add(int64(4), uint8(21), uint8(0), []byte{4, 3, 7, 0, 2})
	f.Add(int64(5), uint8(10), uint8(2), []byte{0, 2, 6, 1, 3, 5})
	f.Fuzz(func(t *testing.T, seed int64, class, threads uint8, script []byte) {
		suite := matgen.TableISuite(0.05)
		a := suite[int(class)%len(suite)].Gen()
		n := a.N
		sym, err := Analyze(a, optsWithThreads(fuzzThreads(threads)))
		if err != nil {
			t.Skip()
		}
		var sub, twin *Numeric
		for _, p := range []**Numeric{&sub, &twin} {
			num, err := Factor(a, sym)
			if err != nil {
				t.Skip()
			}
			if err := refreshFull(num, a); err != nil {
				t.Skip()
			}
			*p = num
		}
		errClass := func(err error) string {
			switch {
			case err == nil:
				return "nil"
			case errors.Is(err, gp.ErrSingular):
				return "singular"
			}
			return "other"
		}
		both := func(ctx string, errSub, errTwin error) bool {
			if errClass(errSub) != errClass(errTwin) {
				t.Fatalf("%s: subject %v, twin %v", ctx, errSub, errTwin)
			}
			return errSub == nil
		}
		rng := rand.New(rand.NewSource(seed))
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		sameSolve := func(ctx string) {
			xs, xt := slices.Clone(rhs), slices.Clone(rhs)
			sub.Solve(xs)
			twin.Solve(xt)
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(xt[i]) {
					t.Fatalf("%s: solution diverges at %d: %v vs %v", ctx, i, xs[i], xt[i])
				}
			}
		}
		if len(script) > 12 {
			script = script[:12]
		}
		for step, op := range script {
			kind := op % 8
			ctx := fmt.Sprintf("step %d (kind %d)", step, kind)
			var cols []int
			if kind != 3 {
				cols = matgen.ChangeSet(n, 0.04, rng.Int63(), rng.Intn(2) == 0)
			}
			prev := slices.Clone(a.Values)
			for _, j := range cols {
				for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
					a.Values[p] *= 0.85 + 0.3*rng.Float64()
				}
			}
			listed := slices.Clone(cols)
			switch kind {
			case 1: // every column twice, the copies after the originals
				listed = append(listed, cols...)
			case 2: // shuffled
				rng.Shuffle(len(listed), func(i, j int) { listed[i], listed[j] = listed[j], listed[i] })
			case 4: // plus a few unchanged columns
				for range 1 + rng.Intn(8) {
					listed = append(listed, rng.Intn(n))
				}
			case 5, 7: // past half the columns: the full-sweep degrade
				for len(listed)*2 < n+2 {
					listed = append(listed, rng.Intn(n))
				}
			}
			if kind == 6 || kind == 7 {
				bad := []int{-1, n, n + 1 + rng.Intn(n), math.MinInt}[rng.Intn(4)]
				listed = slices.Insert(listed, rng.Intn(len(listed)+1), bad)
				if err := sub.RefactorPartial(a, listed); err == nil {
					t.Fatalf("%s: column %d out of range accepted", ctx, bad)
				}
				copy(a.Values, prev)
				assertSameFactors(t, twin, sub, ctx+" rejected")
				continue
			}
			fallbacks := sub.PivotFallbacks() + twin.PivotFallbacks()
			if !both(ctx, sub.RefactorPartial(a, listed), refreshFull(twin, a)) {
				return // values unspecified on both sides
			}
			if sub.PivotFallbacks()+twin.PivotFallbacks() != fallbacks {
				if !both(ctx+" re-normalize", refreshFull(sub, a), refreshFull(twin, a)) {
					return
				}
			}
			assertSameFactors(t, twin, sub, ctx)
			sameSolve(ctx)
		}
	})
}
