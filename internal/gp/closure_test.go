package gp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/order/btf"
	"repro/internal/sparse"
)

// closureCases gathers the blocks of TestSelectiveClosureMatchesScan from the
// Table I suite: every ND block replayed as TestRefreshSupernodeBlockedBitwise
// replays it (with its supernode partition), and up to eight small BTF
// blocks per matrix (xsup nil: column-at-a-time kernel only).
func closureCases(tb testing.TB) []snodeCase {
	var cases []snodeCase
	for _, m := range matgen.TableISuite(1) {
		a := m.Gen()
		cases = append(cases, ndSnodeCases(tb, m.Name, a)...)
		form, err := btf.Compute(a, true)
		if err != nil {
			tb.Fatal(err)
		}
		b := a.Permute(form.RowPerm, form.ColPerm)
		small := 0
		for blk := 0; blk+1 < len(form.BlockPtr) && small < 8; blk++ {
			r0, r1 := form.BlockPtr[blk], form.BlockPtr[blk+1]
			if r1-r0 < 2 || r1-r0 >= max(128, a.N/4) {
				continue
			}
			cases = append(cases, snodeCase{fmt.Sprintf("%s/small%d", m.Name, blk), b.ExtractBlock(r0, r1, r0, r1), nil})
			small++
		}
	}
	return cases
}

// selectiveKernel is one selective refresh under test: how to factor the
// block, and the forward-closure kernel with its backward-scan reference.
type selectiveKernel struct {
	name   string
	factor func(f *Factors, a *sparse.CSC) error
	fwd    func(f *Factors, a *sparse.CSC, stamp []uint64, epoch uint64, rerun []bool) error
	scan   func(f *Factors, a *sparse.CSC, stamp []uint64, epoch uint64, rerun []bool) error
}

// TestSelectiveClosureMatchesScan pins the forward dependency closure of
// RefactorSelective and RefactorSupernodalSelective to the backward scan
// they replaced: over the Table I suite's ND and small blocks and the dirty
// sets {single, random, all, empty}, both must rerun exactly the same
// columns and leave bitwise-identical L and U. The last step re-pivots
// both factors onto a different pattern first, so a row index left over
// from the old pattern would send the closure down the wrong rows.
func TestSelectiveClosureMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ws := NewWorkspace(1)
	plain := selectiveKernel{
		name:   "column",
		factor: func(f *Factors, a *sparse.CSC) error { return FactorInto(f, a, nil, 0, Options{}, ws) },
		fwd: func(f *Factors, a *sparse.CSC, stamp []uint64, epoch uint64, rerun []bool) error {
			return f.RefactorSelective(a, ws, stamp, epoch, rerun)
		},
		scan: func(f *Factors, a *sparse.CSC, stamp []uint64, epoch uint64, rerun []bool) error {
			return f.refactorSelectiveScan(a, ws, stamp, epoch, rerun)
		},
	}
	var reruns, cols int
	for _, c := range closureCases(t) {
		kernels := []selectiveKernel{plain}
		if c.xsup != nil {
			xsup := c.xsup
			kernels = append(kernels, selectiveKernel{
				name: "supernodal",
				factor: func(f *Factors, a *sparse.CSC) error {
					return FactorInto(f, a, xsup, 0, Options{}, ws)
				},
				fwd: func(f *Factors, a *sparse.CSC, stamp []uint64, epoch uint64, rerun []bool) error {
					return f.RefactorSelective(a, ws, stamp, epoch, rerun)
				},
				scan: func(f *Factors, a *sparse.CSC, stamp []uint64, epoch uint64, rerun []bool) error {
					return f.refactorSupernodalReference(a, ws, stamp, epoch, rerun)
				},
			})
		}
		n := c.a.N
		all := make([]int, n)
		for j := range all {
			all[j] = j
		}
		sets := []struct {
			name    string
			cols    []int
			repivot bool
		}{
			{"single", []int{rng.Intn(n)}, false},
			{"random", rng.Perm(n)[:1+n/20], false},
			{"all", all, false},
			{"empty", nil, false},
			{"random after re-pivot", rng.Perm(n)[:1+n/20], true},
		}
		for _, k := range kernels {
			var ref, fwd Factors
			for _, f := range []*Factors{&ref, &fwd} {
				if err := k.factor(f, c.a); err != nil {
					t.Fatalf("%s %s: %v", c.name, k.name, err)
				}
			}
			stamp := make([]uint64, n)
			rrRef, rrFwd := make([]bool, n), make([]bool, n)
			cur := c.a
			for e, set := range sets {
				ctx := fmt.Sprintf("%s %s %s", c.name, k.name, set.name)
				if set.repivot {
					cur = cur.Transpose()
					for _, f := range []*Factors{&ref, &fwd} {
						if err := k.factor(f, cur); err != nil {
							t.Fatalf("%s: re-pivot: %v", ctx, err)
						}
					}
				}
				epoch := uint64(e + 1)
				next := cur.Clone()
				for _, j := range set.cols {
					stamp[j] = epoch
					for p := next.Colptr[j]; p < next.Colptr[j+1]; p++ {
						next.Values[p] *= 1 + 0.25*rng.Float64()
					}
				}
				errRef := k.scan(&ref, next, stamp, epoch, rrRef)
				errFwd := k.fwd(&fwd, next, stamp, epoch, rrFwd)
				if fmt.Sprint(errRef) != fmt.Sprint(errFwd) {
					t.Fatalf("%s: errors diverge: scan %v, forward %v", ctx, errRef, errFwd)
				}
				for j := range rrRef {
					if rrRef[j] != rrFwd[j] {
						t.Fatalf("%s: rerun[%d] = %v, scan %v", ctx, j, rrFwd[j], rrRef[j])
					}
					if rrRef[j] {
						reruns++
					}
				}
				cols += n
				assertBitsEqual(t, &ref, &fwd, ctx)
				cur = next
			}
		}
	}
	if reruns == 0 || reruns == cols {
		t.Fatalf("closures reran %d of %d columns: want a mix", reruns, cols)
	}
}
