package basker

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matgen"
)

// backwardError is the normwise relative residual of x for A·x = b:
// ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞).
func backwardError(a *Matrix, x, b []float64) float64 {
	r := make([]float64, a.N)
	a.MulVec(r, x)
	absRow := make([]float64, a.N)
	for p, i := range a.Rowidx[:a.Nnz()] {
		absRow[i] += math.Abs(a.Values[p])
	}
	rn, an, xn, bn := 0.0, 0.0, 0.0, 0.0
	for i := range r {
		rn = max(rn, math.Abs(r[i]-b[i]))
		an = max(an, absRow[i])
		xn = max(xn, math.Abs(x[i]))
		bn = max(bn, math.Abs(b[i]))
	}
	return rn / (an*xn + bn)
}

// layoutCheck solves a fixed batch through Solve and SolveMany and checks
// what every event of TestSolveLayoutAfterRepivot must leave behind: a
// relative residual of at most 1e-12 (backwardError) and SolveMany ==
// Solve. It returns the Solve solutions.
func layoutCheck(t *testing.T, event string, f *Factorization, a *Matrix) [][]float64 {
	t.Helper()
	const k = 9 // one full panel and a one-vector tail
	n := a.N
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = make([]float64, n)
		for i := range rhs[c] {
			rhs[c][i] = math.Sin(float64(1 + i + 7*c))
		}
	}
	want := make([][]float64, k)
	for c, b := range rhs {
		want[c] = slices.Clone(b)
		if err := f.Solve(want[c]); err != nil {
			t.Fatalf("%s: Solve: %v", event, err)
		}
		if eta := backwardError(a, want[c], b); eta > 1e-12 {
			t.Fatalf("%s: rhs %d: residual %g", event, c, eta)
		}
	}
	many := make([][]float64, k)
	for c := range rhs {
		many[c] = slices.Clone(rhs[c])
	}
	if err := f.SolveMany(many); err != nil {
		t.Fatalf("%s: SolveMany: %v", event, err)
	}
	for c := range rhs {
		for i, w := range want[c] {
			if many[c][i] != w {
				t.Fatalf("%s: rhs %d row %d: SolveMany %v, Solve %v", event, c, i, many[c][i], w)
			}
		}
	}
	return want
}

// leadEntry names two entries, by position in the pattern, of a small
// block's first column: the one its current pivot row holds and another one
// inside the block.
type leadEntry struct{ piv, alt int }

// leadPivots lists the leadEntry of every small block that has one under
// num's current pivots; m is any matrix with num's pattern.
func leadPivots(t *testing.T, num *core.Numeric, m *Matrix) []leadEntry {
	t.Helper()
	sym, rowPos := num.Sym, num.RowPos()
	var out []leadEntry
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		r0, r1 := sym.BlockRange(blk)
		if sym.IsND(blk) || r1-r0 < 2 {
			continue
		}
		e := leadEntry{-1, -1}
		col := sym.ColPerm[r0]
		for p := m.Colptr[col]; p < m.Colptr[col+1]; p++ {
			switch pos := int(rowPos[m.Rowidx[p]]); {
			case pos == r0:
				e.piv = p
			case pos > r0 && pos < r1 && e.alt < 0:
				e.alt = p
			}
		}
		if e.piv >= 0 && e.alt >= 0 {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		t.Fatal("no small block has a second entry in its first column")
	}
	return out
}

// TestSolveLayoutAfterRepivot drives every way a factorization's pivots can
// change under a live Factorization and checks that the solves' pivot-order
// layout follows each one: (a) a Refactor whose zeroed pivots force per-block
// fallbacks, (b) FactorInto on new values, (c) the tolerance-1 FactorInto
// the pool falls back to last, and (d) a FactorInto cancelled mid-sweep followed by a
// recovering Refactor. Each event must move the row map, so a layout left
// stale by any of them fails the residual and equality checks.
func TestSolveLayoutAfterRepivot(t *testing.T) {
	inject := faultinject.New()
	_, f, a := chaosFactor(t, inject)
	num := f.num
	sym := num.Sym
	layoutCheck(t, "factor", f, a)
	prev := slices.Clone(num.RowPos())
	moved := func(event string) {
		t.Helper()
		if slices.Equal(prev, num.RowPos()) {
			t.Fatalf("%s: the pivots did not change, so the event does not test the layout", event)
		}
		prev = slices.Clone(num.RowPos())
	}

	// (a) Move the first pivot of every small block onto another entry of
	// its column: the reused pivot is an exact zero, so each such block falls
	// back to a fresh pivoting factorization, which picks the other row.
	drift := a.Clone()
	for _, e := range leadPivots(t, num, drift) {
		drift.Values[e.piv], drift.Values[e.alt] = 0, drift.Values[e.piv]
	}
	before := num.PivotFallbacks()
	if err := f.Refactor(drift); err != nil {
		t.Fatalf("(a) Refactor with zeroed pivots: %v", err)
	}
	if num.PivotFallbacks() == before {
		t.Fatal("(a) zeroed pivots took no fallback")
	}
	layoutCheck(t, "(a) pivot-drift fallback", f, drift)
	moved("(a) pivot-drift fallback")

	// (b) FactorInto re-pivots every block for new values, and must solve
	// bit for bit like a fresh factorization of the same matrix.
	step := matgen.TransientStep(a, 1, 5)
	if err := num.FactorInto(step); err != nil {
		t.Fatalf("(b) FactorInto: %v", err)
	}
	got := layoutCheck(t, "(b) FactorInto", f, step)
	moved("(b) FactorInto")
	fresh, err := core.Factor(step, sym)
	if err != nil {
		t.Fatal(err)
	}
	want := layoutCheck(t, "(b) fresh Factor", newFactorization(fresh), step)
	for c := range want {
		for i, w := range want[c] {
			if math.Float64bits(got[c][i]) != math.Float64bits(w) {
				t.Fatalf("(b) rhs %d row %d: FactorInto %v, fresh Factor %v", c, i, got[c][i], w)
			}
		}
	}

	// (c) The tolerance-1 FactorInto, full partial pivoting. Doubling the
	// alternative entries makes it choose them, where the default tolerance
	// keeps preferring the diagonal.
	step2 := matgen.TransientStep(a, 2, 5)
	for _, e := range leadPivots(t, num, step2) {
		step2.Values[e.alt] = 2 * step2.Values[e.piv]
	}
	if err := num.FactorIntoTol(step2, 1); err != nil {
		t.Fatalf("(c) tolerance-1 FactorInto: %v", err)
	}
	layoutCheck(t, "(c) tolerance-1 FactorInto", f, step2)
	moved("(c) tolerance-1 FactorInto")

	// (d) A FactorInto cancelled while a worker is held before its completion
	// signal leaves half-built factors; the next Refactor re-pivots them all.
	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: faultinject.SweepFactor, SweepSet: true, Block: -1, Worker: -1, Times: 1, Stall: 150 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := num.FactorIntoCtx(ctx, matgen.TransientStep(a, 3, 5)); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("(d) cancelled FactorInto: %v, want ErrCanceled", err)
	}
	inject.DisarmAll()
	step4 := matgen.TransientStep(a, 4, 5)
	if err := f.Refactor(step4); err != nil {
		t.Fatalf("(d) recovering Refactor: %v", err)
	}
	layoutCheck(t, "(d) recovery after a cancelled FactorInto", f, step4)
	moved("(d) recovery after a cancelled FactorInto")
}
