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
// +0 to −0 (and back) changes the matrix. Refactor's automatic change
// discovery compares bits, so it must find the flips, and permuted storage
// and every factor must match a full refresh bit for bit — an == compare
// calls them "no change".
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
	var nums [2]*Numeric // full, discovered
	for i := range nums {
		if nums[i], err = Factor(base, sym); err != nil {
			t.Fatal(err)
		}
		if err := refreshFull(nums[i], base); err != nil {
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
		if err := refreshFull(nums[0], step.a); err != nil {
			t.Fatal(err)
		}
		if err := nums[1].Refactor(step.a); err != nil {
			t.Fatal(err)
		}
		assertSameFactors(t, nums[0], nums[1], step.name)
	}
}

// TestRefactorAutoAfterEveryEntryPoint pins Refactor's automatic change
// discovery against the values every writer leaves in permuted storage:
// after any entry point has run — including a Refactor failed by an
// injected pivot failure and one cancelled mid-sweep — a Refactor of a
// perturbed matrix must produce exactly what a full refresh does. The
// perturbed matrix reverts the predecessor's columns to their earlier
// values, so a writer that left permuted storage behind the values it was
// given makes Refactor miss those columns.
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
			// warm returns a numeric in refresh arithmetic holding base.
			warm := func() *Numeric {
				t.Helper()
				num, err := factorFresh(context.Background(), base, sym, hooks)
				if err != nil {
					t.Fatal(err)
				}
				if err := refreshFull(num, base); err != nil {
					t.Fatal(err)
				}
				return num
			}
			preds := []struct {
				name string
				// fresh: the predecessor leaves fresh-factor arithmetic behind,
				// which the blocks a partial Refactor skips keep.
				fresh bool
				run   func(num *Numeric) (*Numeric, error)
			}{
				{"Factor", true, func(*Numeric) (*Numeric, error) {
					return factorFresh(context.Background(), m1, sym, hooks)
				}},
				{"FactorInto", true, func(num *Numeric) (*Numeric, error) { return num, num.FactorInto(m1) }},
				{"full refresh", false, func(num *Numeric) (*Numeric, error) { return num, refreshFull(num, m1) }},
				{"RefactorPartial", false, func(num *Numeric) (*Numeric, error) { return num, num.RefactorPartial(m1, cols1) }},
				{"Refactor", false, func(num *Numeric) (*Numeric, error) { return num, num.Refactor(m1) }},
				{"Refactor failed by PivotFail", false, func(num *Numeric) (*Numeric, error) {
					inject.Arm(faultinject.PointPivotFail, faultinject.Any())
					defer inject.DisarmAll()
					if err := num.Refactor(m1); err == nil || !num.Poisoned() {
						return num, fmt.Errorf("injected pivot failure: err %v, poisoned %v", err, num.Poisoned())
					}
					return num, nil
				}},
				{"RefactorCtx cancelled mid-sweep", false, func(num *Numeric) (*Numeric, error) {
					// One stalled worker holds the sweep open until the monitor
					// has seen the cancellation.
					inject.Arm(faultinject.PointStall, faultinject.Rule{Block: -1, Worker: -1, Times: 1, Stall: 15 * time.Millisecond})
					defer inject.DisarmAll()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cancelOnStart.Store(&cancel)
					err := num.RefactorCtx(ctx, m1)
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
				if err := num.Refactor(next); err != nil {
					t.Fatalf("%s: Refactor: %v", p.name, err)
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
					err = refreshFull(ref, next)
				}
				if err != nil {
					t.Fatalf("%s: reference: %v", p.name, err)
				}
				assertSameFactors(t, ref, num, p.name)
			}
		})
	}
}

// TestRefactorDiscoverBitwise pins Refactor's partial path to the full
// refresh over the Table I suite, serially and at four threads: restamps of
// 1 %, 10 % and 40 % of the columns, clustered and scattered, all below the
// half-the-columns rule, must leave every factor and permuted value
// Float64bits-equal to the full-sweep twin.
func TestRefactorDiscoverBitwise(t *testing.T) {
	for _, m := range matgen.TableISuite(0.25) {
		base := m.Gen()
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/T%d", m.Name, threads), func(t *testing.T) {
				sym, err := Analyze(base, optsWithThreads(threads))
				if err != nil {
					t.Fatal(err)
				}
				var twin, sub *Numeric
				for _, p := range []**Numeric{&twin, &sub} {
					if *p, err = Factor(base, sym); err != nil {
						t.Fatal(err)
					}
					if err := refreshFull(*p, base); err != nil {
						t.Fatal(err)
					}
				}
				cur := base
				for step, frac := range []float64{0.01, 0.1, 0.4} {
					cols := matgen.ChangeSet(base.N, frac, int64(step+1), step%2 == 0)
					cur = matgen.PerturbColumns(cur, cols, step+1, 37)
					if err := refreshFull(twin, cur); err != nil {
						t.Fatal(err)
					}
					if err := sub.Refactor(cur); err != nil {
						t.Fatal(err)
					}
					assertSameFactors(t, twin, sub, fmt.Sprintf("step %d (%.0f%%)", step, 100*frac))
				}
				if sub.DirtyBlocksTotal() == 0 {
					t.Fatal("no Refactor took the partial path")
				}
			})
		}
	}
}

// BenchmarkRefactorDiscover times what Refactor does before its sweep on
// the bench-xyce pattern (n = 30 000): the pattern check and the change
// discovery, then the full gather of a restamp or the writes and dirty
// marking of a 1 % window. Each iteration alternates between two matrices,
// so every call finds the change.
func BenchmarkRefactorDiscover(b *testing.B) {
	base := matgen.Circuit(matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111})
	num, err := FactorDirect(base, optsWithThreads(1))
	if err != nil {
		b.Fatal(err)
	}
	pl := num.Sym.plan
	cols := matgen.ChangeSet(base.N, 0.01, 5, true)
	for _, in := range []struct {
		name  string
		steps [2]*sparse.CSC
	}{
		{"restamp", [2]*sparse.CSC{matgen.TransientStep(base, 1, 5), matgen.TransientStep(base, 2, 5)}},
		{"window-1pct", [2]*sparse.CSC{matgen.PerturbColumns(base, cols, 1, 5), matgen.PerturbColumns(base, cols, 2, 5)}},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := in.steps[i%2]
				if err := pl.checkPattern(a); err != nil {
					b.Fatal(err)
				}
				if changed, partial := num.changedColumns(a); partial {
					num.markChanged(a, changed)
				} else {
					sparse.PermuteInto(num.Perm, a, pl.permMap)
				}
			}
		})
	}
}
