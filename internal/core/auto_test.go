package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestRefactorAutoSignedZero: a restamp that only flips stored zeros from
// +0 to −0 (and back) changes the matrix. RefactorAuto compares bits, so it
// must discover the flips, and permuted storage and every factor must
// match a full Refactor bit for bit — an == compare calls them "no change".
func TestRefactorAutoSignedZero(t *testing.T) {
	var base *sparse.CSC
	for _, m := range matgen.TableISuite(0.1) {
		if m.Name == "RS_b39c30" {
			base = m.Gen()
		}
	}
	// Store a +0 in every third off-diagonal entry.
	var zeros []int
	for j := 0; j < base.N; j++ {
		for p := base.Colptr[j]; p < base.Colptr[j+1]; p++ {
			if base.Rowidx[p] != j && p%3 == 0 {
				base.Values[p] = 0
				zeros = append(zeros, p)
			}
		}
	}
	sym, err := Analyze(base, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	var nums [2]*Numeric // full, auto
	for i := range nums {
		if nums[i], err = Factor(base, sym); err != nil {
			t.Fatal(err)
		}
		if err := nums[i].Refactor(base); err != nil {
			t.Fatal(err)
		}
	}
	flipped := base.Clone()
	for i, p := range zeros {
		if i%7 == 0 {
			flipped.Values[p] = math.Copysign(0, -1)
		}
	}
	for _, step := range []struct {
		name string
		a    *sparse.CSC
	}{{"+0 to -0", flipped}, {"-0 to +0", base}} {
		if err := nums[0].Refactor(step.a); err != nil {
			t.Fatal(err)
		}
		if err := nums[1].RefactorAuto(step.a); err != nil {
			t.Fatal(err)
		}
		assertSameFactors(t, nums[0], nums[1], step.name)
	}
}

// TestRefactorAutoAfterEveryEntryPoint pins the coherence of RefactorAuto's
// value snapshot with permuted storage: after any entry point has run —
// including a RefactorAuto failed by an injected pivot failure and one
// cancelled mid-sweep — a RefactorAuto of a perturbed matrix must produce
// exactly what a full Refactor does. The snapshot is built before the
// predecessor, and the perturbed matrix reverts the predecessor's columns
// to their earlier values, so a writer that left the snapshot behind makes
// RefactorAuto miss those columns.
func TestRefactorAutoAfterEveryEntryPoint(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			base := randCircuit(rng, 320, 0.6)
			inject := faultinject.New()
			opts := optsWithThreads(threads)
			opts.Inject = inject
			sym, err := Analyze(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sym.NumNDBlocks() == 0 || sym.NumBlocks() == sym.NumNDBlocks() {
				t.Fatal("test matrix needs both ND and small blocks")
			}
			cols1 := matgen.ChangeSet(base.N, 0.05, 41, true)
			cols2 := matgen.ChangeSet(base.N, 0.05, 42, false)
			m1 := matgen.PerturbColumns(base, cols1, 1, 43)
			next := matgen.PerturbColumns(base, cols2, 2, 44)
			// The hook cancels a step's context as its first block starts. It
			// stays installed for every numeric's lifetime, so stragglers of
			// the cancelled sweep never race a hook swap.
			var cancelOnStart atomic.Pointer[context.CancelFunc]
			hooks := &schedHooks{blockStart: func(int, bool) {
				if c := cancelOnStart.Load(); c != nil {
					(*c)()
				}
			}}
			// warm returns a numeric in refresh arithmetic holding base, with
			// RefactorAuto's snapshot built.
			warm := func() *Numeric {
				t.Helper()
				num, err := factorFresh(context.Background(), base, sym, hooks)
				if err != nil {
					t.Fatal(err)
				}
				if err := num.Refactor(base); err != nil {
					t.Fatal(err)
				}
				if err := num.RefactorAuto(base); err != nil {
					t.Fatal(err)
				}
				return num
			}
			preds := []struct {
				name string
				// fresh: the predecessor leaves fresh-factor arithmetic behind,
				// which the blocks RefactorAuto skips keep.
				fresh bool
				run   func(num *Numeric) (*Numeric, error)
			}{
				{"Factor", true, func(*Numeric) (*Numeric, error) {
					return factorFresh(context.Background(), m1, sym, hooks)
				}},
				{"FactorInto", true, func(num *Numeric) (*Numeric, error) { return num, num.FactorInto(m1) }},
				{"Refactor", false, func(num *Numeric) (*Numeric, error) { return num, num.Refactor(m1) }},
				{"RefactorPartial", false, func(num *Numeric) (*Numeric, error) { return num, num.RefactorPartial(m1, cols1) }},
				{"RefactorAuto", false, func(num *Numeric) (*Numeric, error) { return num, num.RefactorAuto(m1) }},
				{"RefactorAuto failed by PivotFail", false, func(num *Numeric) (*Numeric, error) {
					inject.Arm(faultinject.PointPivotFail, faultinject.Any())
					defer inject.DisarmAll()
					if err := num.RefactorAuto(m1); err == nil || !num.Poisoned() {
						return num, fmt.Errorf("injected pivot failure: err %v, poisoned %v", err, num.Poisoned())
					}
					return num, nil
				}},
				{"RefactorAutoCtx cancelled mid-sweep", false, func(num *Numeric) (*Numeric, error) {
					// One stalled worker holds the sweep open until the monitor
					// has seen the cancellation.
					inject.Arm(faultinject.PointStall, faultinject.Rule{Block: -1, Worker: -1, Times: 1, Stall: 15 * time.Millisecond})
					defer inject.DisarmAll()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cancelOnStart.Store(&cancel)
					err := num.RefactorAutoCtx(ctx, m1)
					cancelOnStart.Store(nil)
					if !errors.Is(err, ErrCanceled) || !num.Poisoned() {
						return num, fmt.Errorf("cancelled sweep: err %v, poisoned %v", err, num.Poisoned())
					}
					return num, nil
				}},
			}
			for _, p := range preds {
				num, err := p.run(warm())
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				if err := num.RefactorAuto(next); err != nil {
					t.Fatalf("%s: RefactorAuto: %v", p.name, err)
				}
				ref := warm()
				if p.fresh {
					// The twin repeats the predecessor, so the blocks both skip
					// hold the same fresh-factor values, and then refreshes the
					// exact m1 → next change set.
					if ref, err = p.run(ref); err != nil {
						t.Fatal(err)
					}
					err = ref.RefactorPartial(next, append(append([]int(nil), cols1...), cols2...))
				} else {
					err = ref.Refactor(next)
				}
				if err != nil {
					t.Fatalf("%s: reference: %v", p.name, err)
				}
				assertSameFactors(t, ref, num, p.name)
			}
		})
	}
}
