package gp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// panelLUCase is one pivoting panel elimination: an m×w column-major panel
// (1 ≤ w ≤ m ≤ 40), its row ids offset by k0 and the pivot settings.
type panelLUCase struct {
	m, w, k0 int
	data     []float64
	rows     []int
	tol      float64
	noPivot  bool
}

// genPanelLU builds a panelLUCase: the row ids are m distinct draws from
// k0−4 .. k0+m+3 (clipped at 0), so the natural row k0+d of a step is
// sometimes absent; flags pick tol ∈ {0.001, 1}, NoPivot and the value mix
// — ±0, small repeated integers (exact magnitude ties), ±Inf, NaN,
// subnormals and normal randoms — and may scale the integers and randoms
// into the subnormal range, where tol·max rounds to zero.
func genPanelLU(seed int64, m8, w8, k08, flags uint8) panelLUCase {
	rng := rand.New(rand.NewSource(seed))
	m := 1 + int(m8)%40
	c := panelLUCase{m: m, w: 1 + int(w8)%m, k0: int(k08), tol: 0.001}
	if flags&1 != 0 {
		c.tol = 1
	}
	c.noPivot = flags&2 != 0
	pSpecial := []float64{0, 0.03, 0.2, 0.7}[flags>>2&3]
	pInt := []float64{0, 0.4, 0.8, 1}[flags>>4&3]
	scale := 1.0
	if flags&64 != 0 {
		scale = 5e-324
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.5e-310}
	c.data = make([]float64, m*c.w)
	for i := range c.data {
		switch r := rng.Float64(); {
		case r < pSpecial:
			c.data[i] = specials[rng.Intn(len(specials))]
		case r < pSpecial+pInt:
			c.data[i] = float64(rng.Intn(7)-3) * scale
		default:
			c.data[i] = rng.NormFloat64() * scale
		}
	}
	lo := max(0, c.k0-4)
	ids := rng.Perm(c.k0 + m + 4 - lo)
	c.rows = make([]int, m)
	for i := range c.rows {
		c.rows[i] = lo + ids[i]
	}
	return c
}

// checkPanelLU runs the pivoting eliminatePanel and dense.LUPartialPivot,
// on the row ids shifted by −k0, over copies of one panel: the same error
// outcome, and on success the same row order and the same bits of every
// value. Any NaN matches any NaN: LUPartialPivot multiplies u·l where
// eliminatePanel multiplies l·u, and x86 takes the NaN payload of a product
// of two NaNs from its first operand. It reports whether both succeeded.
func checkPanelLU(t *testing.T, c panelLUCase) bool {
	t.Helper()
	want := &dense.Matrix{Rows: c.m, Cols: c.w, LD: c.m, Data: slices.Clone(c.data)}
	wantRows := make([]int, c.m)
	for i, r := range c.rows {
		wantRows[i] = r - c.k0
	}
	errW := want.LUPartialPivot(c.tol, c.noPivot, wantRows)
	got := &dense.Matrix{Rows: c.m, Cols: c.w, LD: c.m, Data: slices.Clone(c.data)}
	gotRows := slices.Clone(c.rows)
	errG := eliminatePanel(got, c.k0, gotRows, c.tol, c.noPivot)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("%d×%d k0=%d tol=%v noPivot=%v: eliminatePanel err %v, LUPartialPivot err %v",
			c.m, c.w, c.k0, c.tol, c.noPivot, errG, errW)
	}
	if errW != nil {
		if !errors.Is(errG, ErrSingular) {
			t.Fatalf("error %v does not wrap ErrSingular", errG)
		}
		return false
	}
	for i, r := range gotRows {
		if r-c.k0 != wantRows[i] {
			t.Fatalf("%d×%d k0=%d: panel row %d holds row %d, LUPartialPivot %d", c.m, c.w, c.k0, i, r-c.k0, wantRows[i])
		}
	}
	for i, v := range want.Data {
		if !sameBits(got.Data[i], v) {
			t.Fatalf("%d×%d k0=%d: value %d = %v (%#x), LUPartialPivot %v (%#x)",
				c.m, c.w, c.k0, i, got.Data[i], math.Float64bits(got.Data[i]), v, math.Float64bits(v))
		}
	}
	return true
}

// TestPanelLUMatchesDense runs checkPanelLU and checkPanelFactorInvariants
// over 4000 seeded panels of genPanelLU, every flag combination included,
// and requires both outcomes to occur.
func TestPanelLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ok := 0
	const cases = 4000
	for i := 0; i < cases; i++ {
		b := make([]byte, 3)
		rng.Read(b)
		c := genPanelLU(rng.Int63(), b[0], b[1], b[2], uint8(i))
		if checkPanelLU(t, c) {
			ok++
		}
		checkPanelFactorInvariants(t, c)
	}
	if ok == 0 || ok == cases {
		t.Fatalf("%d of %d panels factored; the table must hit both outcomes", ok, cases)
	}
}

// FuzzPanelLU is checkPanelLU over fuzzed panels.
func FuzzPanelLU(f *testing.F) {
	f.Add(int64(1), uint8(39), uint8(39), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint8(7), uint8(5), uint8(0x11))
	f.Add(int64(3), uint8(12), uint8(12), uint8(200), uint8(0x2e))
	f.Add(int64(4), uint8(25), uint8(3), uint8(2), uint8(0x35))
	f.Add(int64(5), uint8(0), uint8(0), uint8(9), uint8(0x0b))
	f.Fuzz(func(t *testing.T, seed int64, m8, w8, k08, flags uint8) {
		c := genPanelLU(seed, m8, w8, k08, flags)
		checkPanelLU(t, c)
		checkPanelFactorInvariants(t, c)
	})
}

// checkPanelFactorInvariants factors the panel as a sparse square matrix —
// its w columns (exact +0 entries dropped) followed by unit columns —
// through every fresh layout: column at a time, the wide supernode [0, w)
// followed by singletons, and dense-built. Each factorization that
// succeeds must pass checkFactorInvariants.
func checkPanelFactorInvariants(t *testing.T, c panelLUCase) {
	t.Helper()
	m := c.m
	coo := sparse.NewCOO(m, m, len(c.data)+m)
	for j := 0; j < c.w; j++ {
		for i, v := range c.data[j*m : (j+1)*m] {
			if v != 0 || math.Signbit(v) {
				coo.Add(i, j, v)
			}
		}
	}
	for j := c.w; j < m; j++ {
		coo.Add(j, j, 1)
	}
	a := coo.ToCSC(false)
	xsup := []int{0}
	for k := c.w; k <= m; k++ {
		xsup = append(xsup, k)
	}
	opts := Options{PivotTol: c.tol, NoPivot: c.noPivot}
	ws := NewWorkspace(m)
	for _, part := range [][]int{nil, xsup} {
		var f Factors
		if FactorInto(&f, a, part, 0, opts, ws) == nil {
			checkFactorInvariants(t, &f)
		}
	}
	var d Factors
	if FactorDenseInto(&d, a, opts, ws) == nil {
		checkFactorInvariants(t, &d)
	}
}
