package gp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dense"
	"repro/internal/matgen"
)

// tileSpecials are the inputs the tile kernels must round like the Go
// loops: signed zeros, NaN, infinities, factors whose products are
// subnormal (or underflow to zero) and factors whose products overflow.
var tileSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-160, -3e-170, 5e-324, 1e200, -2e250}

// tileValue draws a normal value, or one of tileSpecials a quarter of the
// time.
func tileValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return tileSpecials[rng.Intn(len(tileSpecials))]
	}
	return rng.NormFloat64()
}

// guardedColumn returns a buffer of n values, filled from fill, framed by
// panelPad guard cells on each side.
func guardedColumn(n int, fill func() float64) []float64 {
	buf := make([]float64, n+2*panelPad)
	for i := range buf {
		buf[i] = math.Float64frombits(guardBits)
	}
	for i := range guardWindow(buf) {
		buf[panelPad+i] = fill()
	}
	return buf
}

// guardWindow returns the n values between the guards of a guardedColumn
// buffer, with the capacity cut at the trailing guards.
func guardWindow(buf []float64) []float64 {
	return buf[panelPad : len(buf)-panelPad : len(buf)-panelPad]
}

// columnGuardsIntact reports whether every guard cell of buf is unwritten.
func columnGuardsIntact(buf []float64) bool {
	for i, v := range buf {
		if (i < panelPad || i >= len(buf)-panelPad) && math.Float64bits(v) != guardBits {
			return false
		}
	}
	return true
}

// sameTileBits returns the first cell where the vector side of a kernel
// (got) differs from the Go side (want) over the whole buffers, guards
// included, or -1. Two NaNs agree whatever their payloads, which x86 picks
// by operand order.
func sameTileBits(want, got []float64) int {
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// tileInput is one call of the tile kernels: a source's below values lv,
// the per-column offsets lb, the target rows rel and two target columns
// with their multipliers.
type tileInput struct {
	rel        []int
	lv         []float64
	lb         []int
	bufA, bufB []float64
	uA, uB     []float64
}

// checkTiles runs tile41 and tile42 on in through the Go loop and through
// the dispatching entry point (the vector kernel plus the Go tail), each
// on its own copy of the target columns, and fails on any differing bit or
// written guard.
func checkTiles(t *testing.T, ctx string, in tileInput) {
	t.Helper()
	wantA, gotA := slices.Clone(in.bufA), slices.Clone(in.bufA)
	tile41Go(in.rel, in.lv, in.lb, guardWindow(wantA), in.uA, 0)
	tile41(in.rel, in.lv, in.lb, guardWindow(gotA), in.uA)
	if i := sameTileBits(wantA, gotA); i >= 0 {
		t.Fatalf("%s: tile41 cell %d: vector %#x, Go %#x", ctx, i-panelPad, math.Float64bits(gotA[i]), math.Float64bits(wantA[i]))
	}
	wantA, gotA = slices.Clone(in.bufA), slices.Clone(in.bufA)
	wantB, gotB := slices.Clone(in.bufB), slices.Clone(in.bufB)
	tile42Go(in.rel, in.lv, in.lb, guardWindow(wantA), guardWindow(wantB), in.uA, in.uB, 0)
	tile42(in.rel, in.lv, in.lb, guardWindow(gotA), guardWindow(gotB), in.uA, in.uB)
	if i := sameTileBits(wantA, gotA); i >= 0 {
		t.Fatalf("%s: tile42 column A cell %d: vector %#x, Go %#x", ctx, i-panelPad, math.Float64bits(gotA[i]), math.Float64bits(wantA[i]))
	}
	if i := sameTileBits(wantB, gotB); i >= 0 {
		t.Fatalf("%s: tile42 column B cell %d: vector %#x, Go %#x", ctx, i-panelPad, math.Float64bits(gotB[i]), math.Float64bits(wantB[i]))
	}
	if !columnGuardsIntact(gotA) || !columnGuardsIntact(gotB) {
		t.Fatalf("%s: a tile wrote outside its target column", ctx)
	}
}

// checkAxpy runs axpy and divBy on a guarded copy of dst through the Go
// loop and the dispatching entry point and fails on any differing bit or
// written guard.
func checkAxpy(t *testing.T, ctx string, dstBuf, src []float64, s float64) {
	t.Helper()
	want, got := slices.Clone(dstBuf), slices.Clone(dstBuf)
	axpyGo(guardWindow(want), src, s)
	axpy(guardWindow(got), src, s)
	if i := sameTileBits(want, got); i >= 0 {
		t.Fatalf("%s: axpy cell %d: vector %#x, Go %#x", ctx, i-panelPad, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	want, got = slices.Clone(dstBuf), slices.Clone(dstBuf)
	divByGo(guardWindow(want), s)
	divBy(guardWindow(got), s)
	if i := sameTileBits(want, got); i >= 0 {
		t.Fatalf("%s: divBy cell %d: vector %#x, Go %#x", ctx, i-panelPad, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	if !columnGuardsIntact(got) {
		t.Fatalf("%s: axpy or divBy wrote outside dst", ctx)
	}
}

// eliminatePanelGo is eliminatePanel through the Go loops only.
func eliminatePanelGo(panel *dense.Matrix) {
	for d := 0; d < panel.Cols; d++ {
		cd := panel.Col(d)
		divByGo(cd[d+1:], cd[d])
		for j := d + 1; j < panel.Cols; j++ {
			cj := panel.Col(j)
			if fjd := cj[d]; fjd != 0 {
				axpyGo(cj[d+1:], cd[d+1:], fjd)
			}
		}
	}
}

// TestSupernodeTileVectorBitwise pins every vector kernel of the supernode
// refresh to its Go loop bit for bit, with no write around the target:
// tile41 and tile42 over 1–19 target rows (the 8-row, 4-row and scalar
// tails) and runs of 1–20 source columns, axpy and divBy over 1–19 values,
// all on special values; then the same kernels on the real source blocks,
// in-source triangles of every wide supernode of the bench-grid3d pattern
// and the panels of its blocked ones.
func TestSupernodeTileVectorBitwise(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no vector supernode kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(32))
	value := func() float64 { return tileValue(rng) }
	for rows := 1; rows <= 19; rows++ {
		for run := 1; run <= 20; run++ {
			ncol := rows + rng.Intn(2*rows+1)
			lv := make([]float64, (run+1)*rows+rng.Intn(8))
			for i := range lv {
				lv[i] = value()
			}
			lb := make([]int, run)
			for d := range lb {
				lb[d] = rng.Intn(len(lv) - rows + 1)
			}
			in := tileInput{rel: rng.Perm(ncol)[:rows], lv: lv, lb: lb, uA: make([]float64, run), uB: make([]float64, run)}
			for d := range run {
				in.uA[d], in.uB[d] = value(), value()
			}
			in.bufA = guardedColumn(ncol, value)
			in.bufB = guardedColumn(ncol, value)
			checkTiles(t, "synthetic", in)
		}
		src := make([]float64, rows+rng.Intn(3))
		for i := range src {
			src[i] = value()
		}
		buf := guardedColumn(rows, value)
		for _, s := range tileSpecials {
			checkAxpy(t, "synthetic", buf, src, s)
		}
		checkAxpy(t, "synthetic", buf, src, value())
	}

	cases := ndSnodeCases(t, "bench-grid3d", matgen.Circuit(matgen.CircuitParams{N: 2700, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 120}))
	blocked := 0
	dws := dense.NewWorkspace()
	for _, c := range cases {
		f := &Factors{}
		if err := FactorSupernodalInto(f, c.a, c.xsup, 0, Options{}, nil, dws); err != nil {
			t.Fatal(err)
		}
		lv := f.L.Values
		for s, isBlocked := range f.snBlocked {
			j0, j1 := f.Snodes[s], f.Snodes[s+1]
			if j1-j0 < 2 {
				continue
			}
			nb := f.L.Colptr[j0+1] - f.L.Colptr[j0] - (j1 - j0)
			// As a source (any wide supernode can be one): every trailing run
			// j..j1-1, rows scattered over a column with room to spare, and
			// the triangle solve on u.
			for j := j0; j < j1; j++ {
				run := j1 - j
				in := tileInput{lv: lv, rel: rng.Perm(nb + 5)[:nb], uA: make([]float64, run), uB: make([]float64, run)}
				for d := j; d < j1; d++ {
					in.lb = append(in.lb, f.L.Colptr[d]+j1-d)
				}
				for d := range run {
					in.uA[d], in.uB[d] = rng.NormFloat64(), rng.NormFloat64()
				}
				for d := 0; d+1 < run; d++ {
					lp := f.L.Colptr[j+d] + 1
					ubuf := guardedColumn(run-d-1, rng.NormFloat64)
					checkAxpy(t, "bench-grid3d triangle", ubuf, lv[lp:lp+run-d-1], in.uA[d])
				}
				in.bufA = guardedColumn(nb+5, rng.NormFloat64)
				in.bufB = guardedColumn(nb+5, rng.NormFloat64)
				checkTiles(t, "bench-grid3d source", in)
			}
			if !isBlocked {
				continue
			}
			blocked++
			// As a blocked target: its own factored panel, eliminated again.
			w := j1 - j0
			want, got := dense.New(w+nb, w), dense.New(w+nb, w)
			for c := 0; c < w; c++ {
				k, col := j0+c, want.Col(c)
				up1 := f.U.Colptr[k+1]
				copy(col[:c+1], f.U.Values[up1-1-c:up1])
				copy(col[c+1:], f.L.Values[f.L.Colptr[k]+1:f.L.Colptr[k+1]])
			}
			copy(got.Data, want.Data)
			eliminatePanelGo(want)
			if err := eliminatePanel(got, j0); err != nil {
				t.Fatal(err)
			}
			if i := sameTileBits(want.Data, got.Data); i >= 0 {
				t.Fatalf("bench-grid3d supernode %d..%d: eliminated panel value %d: vector %#x, Go %#x",
					j0, j1-1, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
	if blocked == 0 {
		t.Fatal("test premise broken: bench-grid3d has no blocked supernode")
	}
	t.Logf("%d blocked supernodes of bench-grid3d", blocked)
}

// TestSupernodeTileCorrupt checks that both paths of tile41 and tile42 panic
// on a source offset or a target row outside its storage (past the end, or
// negative), at the first, a middle and the last source column or row, with
// no guard cell around the target written; and that both paths of axpy
// panic on a source shorter than its target.
func TestSupernodeTileCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	type path struct {
		name   string
		tile41 func(rel []int, lv []float64, lb []int, col, u []float64)
		tile42 func(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64)
		axpy   func(dst, src []float64, s float64)
	}
	paths := []path{{"go",
		func(rel []int, lv []float64, lb []int, col, u []float64) { tile41Go(rel, lv, lb, col, u, 0) },
		func(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64) {
			tile42Go(rel, lv, lb, colA, colB, uA, uB, 0)
		},
		axpyGo,
	}}
	if hasAVX2 {
		paths = append(paths, path{"vector", tile41, tile42, axpy})
	}
	for _, rows := range []int{4, 8, 9, 13, 16} {
		const run = 6
		ncol := rows + 3
		for _, at := range []int{0, 1, 2} {
			for _, c := range []struct {
				name    string
				corrupt func(in *tileInput)
			}{
				{"lb past the end", func(in *tileInput) { in.lb[at*(run-1)/2] = len(in.lv) - rows + 1 }},
				{"lb at the end", func(in *tileInput) { in.lb[at*(run-1)/2] = len(in.lv) }},
				{"negative lb", func(in *tileInput) { in.lb[at*(run-1)/2] = -1 }},
				{"rel past the end", func(in *tileInput) { in.rel[at*(rows-1)/2] = ncol }},
				{"negative rel", func(in *tileInput) { in.rel[at*(rows-1)/2] = -1 }},
			} {
				for _, p := range paths {
					in := tileInput{rel: rng.Perm(ncol)[:rows], lv: make([]float64, run*rows), uA: make([]float64, run), uB: make([]float64, run)}
					for d := range run {
						in.lb = append(in.lb, d*rows)
						in.uA[d], in.uB[d] = 1, 2
					}
					c.corrupt(&in)
					bufA, bufB := guardedColumn(ncol, rng.NormFloat64), guardedColumn(ncol, rng.NormFloat64)
					colA, colB := guardWindow(bufA), guardWindow(bufB)
					if !panics(func() { p.tile41(in.rel, in.lv, in.lb, colA, in.uA) }) {
						t.Fatalf("%d rows, %s at %d, %s tile41: no panic", rows, c.name, at, p.name)
					}
					if !panics(func() { p.tile42(in.rel, in.lv, in.lb, colA, colB, in.uA, in.uB) }) {
						t.Fatalf("%d rows, %s at %d, %s tile42: no panic", rows, c.name, at, p.name)
					}
					if !columnGuardsIntact(bufA) || !columnGuardsIntact(bufB) {
						t.Fatalf("%d rows, %s at %d, %s: wrote outside the target column", rows, c.name, at, p.name)
					}
				}
			}
		}
	}
	for _, p := range paths {
		buf := guardedColumn(9, rng.NormFloat64)
		if !panics(func() { p.axpy(guardWindow(buf), make([]float64, 8), 1) }) {
			t.Fatalf("%s axpy: no panic on a short source", p.name)
		}
		if !columnGuardsIntact(buf) {
			t.Fatalf("%s axpy: wrote outside dst", p.name)
		}
	}
}
