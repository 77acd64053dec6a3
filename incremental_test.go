package basker

import (
	"math"
	"testing"

	"repro/internal/matgen"
)

// TestPublicAPIRefactorPartial drives the incremental refresh through the
// public Factorization surface: explicit change sets and Refactor's own
// change discovery must both track a transient sequence of localized
// perturbations and keep solves accurate.
func TestPublicAPIRefactorPartial(t *testing.T) {
	base := matgen.XyceSequenceBase(0.15)
	s := New(Options{Threads: 2})
	fp, err := s.Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := s.Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := 1; step <= 4; step++ {
		cols := matgen.ChangeSet(base.N, 0.02, int64(step), step%2 == 0)
		next := matgen.PerturbColumns(cur, cols, step, 17)
		if err := fp.RefactorPartial(next, cols); err != nil {
			t.Fatalf("partial step %d: %v", step, err)
		}
		if err := fa.Refactor(next); err != nil {
			t.Fatalf("refactor step %d: %v", step, err)
		}
		for _, f := range []*Factorization{fp, fa} {
			x := make([]float64, next.N)
			for i := range x {
				x[i] = 1 + float64(i%5)
			}
			b := make([]float64, next.N)
			next.MulVec(b, x)
			f.Solve(b)
			for i := range x {
				if math.Abs(b[i]-x[i]) > 1e-6 {
					t.Fatalf("step %d: x[%d] = %v, want %v", step, i, b[i], x[i])
				}
			}
		}
		cur = next
	}
}
