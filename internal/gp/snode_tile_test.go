package gp

import (
	"fmt"
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

// TestSupernodeTileVectorBitwise pins the panel kernels of the supernode
// refresh to their Go loops bit for bit, with no write around the target:
// axpy and divBy over 1–19 values on special values, then on the real
// in-source triangles of every wide supernode of the bench-grid3d pattern,
// and eliminatePanel on the panels of its blocked ones. The tile kernels
// have TestSupernodeRowKernelBitwise.
func TestSupernodeTileVectorBitwise(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no vector supernode kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(32))
	value := func() float64 { return tileValue(rng) }
	for rows := 1; rows <= 19; rows++ {
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
	for _, c := range cases {
		f := &Factors{}
		if err := FactorInto(f, c.a, c.xsup, 0, Options{}, nil); err != nil {
			t.Fatal(err)
		}
		lv := f.L.Values
		for s, isBlocked := range f.snBlocked {
			j0, j1 := f.Snodes[s], f.Snodes[s+1]
			if j1-j0 < 2 {
				continue
			}
			nb := f.L.Colptr[j0+1] - f.L.Colptr[j0] - (j1 - j0)
			// As a source (any wide supernode can be one): the triangle
			// solve of every trailing run j..j1-1 on a random u.
			for j := j0; j < j1; j++ {
				run := j1 - j
				for d := 0; d+1 < run; d++ {
					lp := f.L.Colptr[j+d] + 1
					ubuf := guardedColumn(run-d-1, rng.NormFloat64)
					checkAxpy(t, "bench-grid3d triangle", ubuf, lv[lp:lp+run-d-1], rng.NormFloat64())
				}
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
			if err := eliminatePanel(got, j0, nil, 0, false); err != nil {
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

// tileMults are the multipliers the tile kernels must mask (zeros of both
// signs) or apply (subnormals, infinities) like the Go loops. NaN
// multipliers get their own case.
var tileMults = []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1)}

// tilePads are what the pad lanes of a tile test block hold: the kernels
// must leave them alone whatever they are, as their multipliers are zero.
var tilePads = []float64{0, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Inf(-1), 7}

// tileBlock returns a guarded block of nrows tile rows: the first width
// lanes of each row from fill, the pad lanes from tilePads.
func tileBlock(rng *rand.Rand, nrows, width int, fill func() float64) []float64 {
	buf := guardedColumn(nrows*snTileCols, fill)
	blk := guardWindow(buf)
	for i := range blk {
		if i%snTileCols >= width {
			blk[i] = tilePads[rng.Intn(len(tilePads))]
		}
	}
	return buf
}

// setMults fills the multiplier rows q..q+run-1 of a tile block: lane c
// of the first width lanes is zero before row q+first[c] and from mult
// after it, the pad lanes are signed zeros. A monotone lane is what the
// padded triangle gives a wide run; random first values give every mask.
func setMults(rng *rand.Rand, blk []float64, q, run, width int, first []int, mult func() float64) {
	for d := 0; d < run; d++ {
		row := blk[(q+d)*snTileCols : (q+d+1)*snTileCols]
		for c := range row {
			switch {
			case c >= width:
				row[c] = tileMults[rng.Intn(2)]
			case d < first[c]:
				row[c] = 0
			default:
				for row[c] = mult(); row[c] == 0; row[c] = mult() {
				}
			}
		}
	}
}

// checkTileBits fails on the first cell where the vector side of a tile
// kernel (got) differs from the Go side (want), guards included, or where
// a pad lane (at or past width) differs from the input. NaN payloads count:
// the vector kernels take the multiplier as the first factor, as the
// compiled Go loops do, so even a NaN times a NaN agrees.
func checkTileBits(t *testing.T, ctx string, in, want, got []float64, width int) {
	t.Helper()
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			c := i - panelPad
			t.Fatalf("%s: block row %d lane %d: vector %#x, Go %#x", ctx, c/snTileCols, c%snTileCols, math.Float64bits(got[i]), math.Float64bits(w))
		}
	}
	for i, v := range guardWindow(got) {
		if i%snTileCols >= width && math.Float64bits(v) != math.Float64bits(guardWindow(in)[i]) {
			t.Fatalf("%s: pad lane %d of block row %d written", ctx, i%snTileCols, i/snTileCols)
		}
	}
}

// tilePath is one implementation of the tile kernels: the Go loops, or a
// vector pair (vectorTilePaths) called directly.
type tilePath struct {
	name      string
	rowUpdate func(blk []float64, q int, rows, slot []int, vals []float64)
	runUpdate func(blk []float64, rel []int, lv []float64, lb []int, q int)
}

var goTilePath = tilePath{"go", rowUpdateGo, runUpdateGo}

// vectorTilePathsOrSkip returns vectorTilePaths, logging their names, or
// skips the test when there is none.
func vectorTilePathsOrSkip(t *testing.T) []tilePath {
	t.Helper()
	paths := vectorTilePaths()
	if len(paths) == 0 {
		t.Skip("no vector supernode kernel in this build or on this CPU")
	}
	t.Logf("vector tile kernels: %s", tilePathNames(paths))
	return paths
}

// tilePathNames lists the names of paths.
func tilePathNames(paths []tilePath) []string {
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = p.name
	}
	return names
}

// tileCase is one input of the tile kernels on a guarded block: a narrow
// source (positions narrowRows through slot, multiplier row q), and a wide
// run on the multiplier rows q..q+len(lb)-1 — its in-source triangle (the
// positions of source column d's triangle rows at tri[d]) and its below
// product (rel, lv, lb).
type tileCase struct {
	buf        []float64
	width, q   int
	tri        [][]int
	triVals    [][]float64
	slot       []int
	rel        []int
	lv         []float64
	lb         []int
	ctx        string
	narrowRows []int
	narrowVals []float64
}

// checkTileCase runs the case through the Go loops and through each of
// paths, each on its own copy of the block, and compares after the narrow
// source, every triangle step and the below product.
func checkTileCase(t *testing.T, paths []tilePath, c tileCase) {
	t.Helper()
	for _, p := range paths {
		ctx := p.name + " " + c.ctx
		want, got := slices.Clone(c.buf), slices.Clone(c.buf)
		wb, gb := guardWindow(want), guardWindow(got)
		if c.narrowRows != nil {
			rowUpdateGo(wb, c.q, c.narrowRows, c.slot, c.narrowVals)
			p.rowUpdate(gb, c.q, c.narrowRows, c.slot, c.narrowVals)
			checkTileBits(t, ctx+" rowUpdate", c.buf, want, got, c.width)
			copy(want, c.buf)
			copy(got, c.buf)
		}
		for d, rows := range c.tri {
			rowUpdateGo(wb, c.q+d, rows, c.slot, c.triVals[d])
			p.rowUpdate(gb, c.q+d, rows, c.slot, c.triVals[d])
			checkTileBits(t, fmt.Sprintf("%s triangle step %d", ctx, d), c.buf, want, got, c.width)
		}
		runUpdateGo(wb, c.rel, c.lv, c.lb, c.q)
		p.runUpdate(gb, c.rel, c.lv, c.lb, c.q)
		checkTileBits(t, ctx+" runUpdate", c.buf, want, got, c.width)
	}
}

// TestSupernodeRowKernelBitwise pins every vector pair of tile kernels of
// the blocked refresh, rowUpdate and runUpdate, to their Go loops bit for
// bit, pad
// lanes and the cells around the block untouched: every width 1–16, 0–19
// target rows (the 2-row tile's odd last row), runs of 1–20 source
// columns with every masked prefix, multipliers 0, −0 and subnormal,
// targets −0, NaN and Inf, Inf and NaN source values under zero
// multipliers; NaN multipliers on finite sources; every register-tile tail
// of runUpdate at every masked/unmasked boundary; then the real source
// columns of every wide supernode of the bench-grid3d pattern, each
// trailing run as narrow source, in-source triangle and below product.
func TestSupernodeRowKernelBitwise(t *testing.T) {
	paths := vectorTilePathsOrSkip(t)
	rng := rand.New(rand.NewSource(34))
	value := func() float64 { return tileValue(rng) }
	mult := func() float64 {
		if rng.Intn(3) == 0 {
			return tileMults[rng.Intn(len(tileMults))]
		}
		return rng.NormFloat64()
	}
	nanMult := func() float64 {
		if rng.Intn(3) == 0 {
			return math.NaN()
		}
		return rng.NormFloat64()
	}
	for width := 1; width <= snTileCols; width++ {
		for n := 0; n <= 19; n++ {
			for run := 1; run <= 20; run++ {
				m, src := mult, value
				if run%5 == 0 {
					m, src = nanMult, rng.NormFloat64
				}
				nrows := run + n + rng.Intn(4)
				q := rng.Intn(nrows - run - n + 1)
				others := rng.Perm(nrows - run)
				for i := range others {
					if others[i] >= q {
						others[i] += run
					}
				}
				c := tileCase{buf: tileBlock(rng, nrows, width, value), width: width, q: q, ctx: fmt.Sprintf("width %d, %d rows, run %d", width, n, run)}
				full := rng.Intn(run + 1)
				first := make([]int, width)
				for i := range first {
					first[i] = rng.Intn(full + 1)
				}
				setMults(rng, guardWindow(c.buf), q, run, width, first, m)
				// Source positions 0..run-1 are the run, the next n its below
				// rows; slot sends them to their block rows.
				c.slot = make([]int, run+n)
				for d := range run {
					c.slot[d] = q + d
				}
				for d := 0; d+1 < run; d++ {
					var rows []int
					var vals []float64
					for e := d + 1; e < run; e++ {
						rows, vals = append(rows, e), append(vals, src())
					}
					c.tri, c.triVals = append(c.tri, rows), append(c.triVals, vals)
				}
				c.rel = others[:n]
				for i, r := range c.rel {
					c.slot[run+i] = r
					c.narrowRows = append(c.narrowRows, run+i)
					c.narrowVals = append(c.narrowVals, src())
				}
				c.lv = make([]float64, (run+1)*n+rng.Intn(8))
				for i := range c.lv {
					c.lv[i] = src()
				}
				for range run {
					c.lb = append(c.lb, rng.Intn(len(c.lv)-n+1))
				}
				checkTileCase(t, paths, c)
			}
		}
	}

	// runUpdate on 1–7 target rows, so every combination of the vector
	// kernels' four-, two- and one-row register tiles runs, at every
	// masked/unmasked boundary of runs of 1–6 source columns: every lane is
	// live from multiplier row full on and one is not in row full-1, so on a
	// full-width tile the kernels unmask from full exactly (narrower tiles
	// have zero pad lanes and stay masked). Widths 1, 8, 9 and 16 put the
	// live lanes in one half or both.
	for _, width := range []int{1, 8, 9, snTileCols} {
		for n := 1; n <= 7; n++ {
			for run := 1; run <= 6; run++ {
				for full := 0; full <= run; full++ {
					nrows := run + n + rng.Intn(3)
					q := rng.Intn(nrows - run - n + 1)
					others := rng.Perm(nrows - run)
					for i := range others {
						if others[i] >= q {
							others[i] += run
						}
					}
					c := tileCase{buf: tileBlock(rng, nrows, width, value), width: width, q: q,
						ctx: fmt.Sprintf("width %d, %d rows, run %d, full %d", width, n, run, full)}
					first := make([]int, width)
					for i := range first {
						first[i] = rng.Intn(full + 1)
					}
					if full > 0 {
						first[rng.Intn(width)] = full
					}
					setMults(rng, guardWindow(c.buf), q, run, width, first, value)
					c.rel = others[:n]
					c.lv = make([]float64, run*n+rng.Intn(4))
					for i := range c.lv {
						c.lv[i] = value()
					}
					for range run {
						c.lb = append(c.lb, rng.Intn(len(c.lv)-n+1))
					}
					checkTileCase(t, paths, c)
				}
			}
		}
	}

	cases := ndSnodeCases(t, "bench-grid3d", matgen.Circuit(matgen.CircuitParams{N: 2700, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 120}))
	runs := 0
	for _, cs := range cases {
		f := &Factors{}
		if err := FactorInto(f, cs.a, cs.xsup, 0, Options{}, nil); err != nil {
			t.Fatal(err)
		}
		for s := 0; s+1 < len(f.Snodes); s++ {
			j0, j1 := f.Snodes[s], f.Snodes[s+1]
			if j1-j0 < 2 {
				continue
			}
			below := f.L.Rowidx[f.L.Colptr[j0]+j1-j0 : f.L.Colptr[j0+1]]
			for j := j0; j < j1; j++ {
				run, nb := j1-j, len(below)
				width := 1 + rng.Intn(snTileCols)
				nrows := run + nb + rng.Intn(4)
				q := rng.Intn(nrows - run - nb + 1)
				others := rng.Perm(nrows - run)
				c := tileCase{buf: tileBlock(rng, nrows, width, rng.NormFloat64), width: width, q: q, lv: f.L.Values, slot: make([]int, f.N)}
				c.ctx = fmt.Sprintf("bench-grid3d source %d..%d", j, j1-1)
				first := make([]int, width)
				full := rng.Intn(run + 1)
				for i := range first {
					first[i] = rng.Intn(full + 1)
				}
				setMults(rng, guardWindow(c.buf), q, run, width, first, rng.NormFloat64)
				for d := 0; d < run; d++ {
					c.slot[j+d] = q + d
				}
				for t, i := range below {
					r := others[t]
					if r >= q {
						r += run
					}
					c.slot[i] = r
					c.rel = append(c.rel, r)
				}
				for d := 0; d+1 < run; d++ {
					lp := f.L.Colptr[j+d] + 1
					c.tri = append(c.tri, f.L.Rowidx[lp:lp+run-d-1])
					c.triVals = append(c.triVals, f.L.Values[lp:lp+run-d-1])
				}
				for d := j; d < j1; d++ {
					c.lb = append(c.lb, f.L.Colptr[d]+j1-d)
				}
				lp0, lp1 := f.L.Colptr[j]+1, f.L.Colptr[j+1]
				c.narrowRows, c.narrowVals = f.L.Rowidx[lp0:lp1], f.L.Values[lp0:lp1]
				checkTileCase(t, paths, c)
				runs++
			}
		}
	}
	if runs == 0 {
		t.Fatal("test premise broken: bench-grid3d has no wide supernode")
	}
}

// TestSupernodeTileCorrupt checks that every path of rowUpdate and
// runUpdate — the Go loops and each vector pair — panics on a target row,
// a source position, a source offset or a multiplier row outside its
// storage (past the end, or negative), at the first, a middle and the last
// row or source column, without a write around the block; runUpdate's
// vector kernels, which check every index first, without writing the block
// either. Both paths of axpy panic on a source shorter than its target.
func TestSupernodeTileCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	paths := append([]tilePath{goTilePath}, vectorTilePaths()...)
	t.Logf("tile kernels: %s", tilePathNames(paths))
	// check runs call on a fresh all-live block and fails unless it panics
	// and leaves the block as the path promises: untouched when whole is
	// set, untouched around it otherwise.
	check := func(ctx string, p tilePath, nrows int, whole bool, call func(p tilePath, blk []float64)) {
		buf := tileBlock(rng, nrows, snTileCols, func() float64 { return 1 + rng.Float64() })
		in := slices.Clone(buf)
		if !panics(func() { call(p, guardWindow(buf)) }) {
			t.Fatalf("%s, %s: no panic", ctx, p.name)
		}
		if !columnGuardsIntact(buf) {
			t.Fatalf("%s, %s: wrote outside the block", ctx, p.name)
		}
		if whole && sameTileBits(in, buf) >= 0 {
			t.Fatalf("%s, %s: wrote the block before panicking", ctx, p.name)
		}
	}
	for _, n := range []int{1, 2, 7, 16} {
		const run = 6
		nrows := run + n + 2
		for _, at := range []int{0, 1, 2} {
			row, col := at*(n-1)/2, at*(run-1)/2
			// rowUpdate: multiplier row 0, source positions 0..n-1 to block
			// rows run.. through slot.
			for _, c := range []struct {
				name    string
				corrupt func(q *int, rows, slot []int, vals *[]float64)
			}{
				{"slot past the end", func(q *int, rows, slot []int, vals *[]float64) { slot[rows[row]] = nrows }},
				{"negative slot", func(q *int, rows, slot []int, vals *[]float64) { slot[rows[row]] = -1 }},
				{"position past slot", func(q *int, rows, slot []int, vals *[]float64) { rows[row] = len(slot) }},
				{"negative position", func(q *int, rows, slot []int, vals *[]float64) { rows[row] = -1 }},
				{"multiplier row past the end", func(q *int, rows, slot []int, vals *[]float64) { *q = nrows }},
				{"negative multiplier row", func(q *int, rows, slot []int, vals *[]float64) { *q = -1 }},
				{"short values", func(q *int, rows, slot []int, vals *[]float64) { *vals = slices.Clip((*vals)[:n-1]) }},
			} {
				for _, p := range paths {
					q, rows, slot, vals := 0, rng.Perm(n), make([]int, n), make([]float64, n)
					for i := range slot {
						slot[i], vals[i] = run+i, 1
					}
					c.corrupt(&q, rows, slot, &vals)
					check(fmt.Sprintf("rowUpdate, %d rows, %s at %d", n, c.name, at), p, nrows, false, func(p tilePath, blk []float64) {
						p.rowUpdate(blk, q, rows, slot, vals)
					})
				}
			}
			// runUpdate: multiplier rows 0..run-1, below rows run.. .
			for _, c := range []struct {
				name    string
				corrupt func(q *int, rel []int, lv []float64, lb []int)
			}{
				{"offset past the end", func(q *int, rel []int, lv []float64, lb []int) { lb[col] = len(lv) - n + 1 }},
				{"offset at the end", func(q *int, rel []int, lv []float64, lb []int) { lb[col] = len(lv) }},
				{"negative offset", func(q *int, rel []int, lv []float64, lb []int) { lb[col] = -1 }},
				{"row past the end", func(q *int, rel []int, lv []float64, lb []int) { rel[row] = nrows }},
				{"negative row", func(q *int, rel []int, lv []float64, lb []int) { rel[row] = -1 }},
				{"multiplier rows past the end", func(q *int, rel []int, lv []float64, lb []int) { *q = nrows - run + 1 }},
				{"negative multiplier row", func(q *int, rel []int, lv []float64, lb []int) { *q = -1 }},
			} {
				for _, p := range paths {
					q, rel, lv, lb := 0, make([]int, n), make([]float64, run*n), make([]int, run)
					for i := range rel {
						rel[i] = run + i
					}
					for d := range lb {
						lb[d] = d * n
					}
					c.corrupt(&q, rel, lv, lb)
					check(fmt.Sprintf("runUpdate, %d rows, %s at %d", n, c.name, at), p, nrows, p.name != "go", func(p tilePath, blk []float64) {
						p.runUpdate(blk, rel, lv, lb, q)
					})
				}
			}
		}
	}
	for name, axpy := range map[string]func(dst, src []float64, s float64){"go": axpyGo, "dispatched": axpy} {
		buf := guardedColumn(9, rng.NormFloat64)
		if !panics(func() { axpy(guardWindow(buf), make([]float64, 8), 1) }) {
			t.Fatalf("%s axpy: no panic on a short source", name)
		}
		if !columnGuardsIntact(buf) {
			t.Fatalf("%s axpy: wrote outside dst", name)
		}
	}
}

// BenchmarkSupernodeTile times the tile kernels on the two shapes the
// bench-grid3d refresh spends its blocked outside update on: a narrow
// source (one L column of 130 rows onto a full 16-lane tile, 7 lanes live)
// and a wide run (56 source columns, in-source triangle and 238 below
// rows, on 16 lanes that are all live from the 16th source column on, 73 %
// of the below product), through the Go loops and each vector pair of
// kernels. ns/update is per live lane update t -= l·u.
func BenchmarkSupernodeTile(b *testing.B) {
	paths := append([]tilePath{goTilePath}, vectorTilePaths()...)
	rng := rand.New(rand.NewSource(36))
	nonzero := func() float64 { return 1 + rng.Float64() }

	const narrowRows, narrowLive = 130, 7
	narrow := make([]float64, (1+2*narrowRows)*snTileCols)
	for _, c := range rng.Perm(snTileCols)[:narrowLive] {
		narrow[c] = nonzero()
	}
	for i := snTileCols; i < len(narrow); i++ {
		narrow[i] = rng.NormFloat64()
	}
	pos, slot := make([]int, narrowRows), rng.Perm(2*narrowRows)
	vals := make([]float64, narrowRows)
	for t := range pos {
		pos[t], slot[t], vals[t] = t, slot[t]+1, rng.NormFloat64()
	}
	for _, p := range paths {
		b.Run("narrow/"+p.name, func(b *testing.B) {
			for range b.N {
				p.rowUpdate(narrow, 0, pos, slot, vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(narrowRows*narrowLive), "ns/update")
		})
	}

	// The wide run: multiplier rows 0..run-1, below rows run.. scattered
	// over twice their count; lane c is live from source column first[c].
	const run, nb, allLive = 56, 238, 16
	wide := make([]float64, (run+2*nb)*snTileCols)
	first := rng.Perm(allLive)
	for d := 0; d < run; d++ {
		for c := range snTileCols {
			if d >= first[c%allLive] {
				wide[d*snTileCols+c] = nonzero()
			}
		}
	}
	for i := run * snTileCols; i < len(wide); i++ {
		wide[i] = rng.NormFloat64()
	}
	tslot := make([]int, run)
	for d := range tslot {
		tslot[d] = d
	}
	var tri [][]int
	var triVals [][]float64
	for d := 0; d+1 < run; d++ {
		var rows []int
		var vals []float64
		for e := d + 1; e < run; e++ {
			rows, vals = append(rows, e), append(vals, rng.NormFloat64()/run)
		}
		tri, triVals = append(tri, rows), append(triVals, vals)
	}
	rel := rng.Perm(2 * nb)[:nb]
	for t := range rel {
		rel[t] += run
	}
	lv, lb := make([]float64, run*nb), make([]int, run)
	for i := range lv {
		lv[i] = rng.NormFloat64()
	}
	for d := range lb {
		lb[d] = d * nb
	}
	updates := 0
	for d := 0; d < run; d++ {
		for _, u := range wide[d*snTileCols : (d+1)*snTileCols] {
			if u != 0 {
				updates += run - d - 1 + nb
			}
		}
	}
	blk := slices.Clone(wide)
	for _, p := range paths {
		b.Run("wide/"+p.name, func(b *testing.B) {
			for range b.N {
				copy(blk, wide)
				for d, rows := range tri {
					p.rowUpdate(blk, d, rows, tslot, triVals[d])
				}
				p.runUpdate(blk, rel, lv, lb, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(updates), "ns/update")
		})
	}
}
