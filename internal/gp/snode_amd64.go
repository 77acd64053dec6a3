//go:build amd64 && !race

package gp

// corruptTile is the panic message for a supernode tile whose source
// offsets, target rows or multiplier rows lie outside the factor's values
// or the block.
const corruptTile = "gp: corrupt factor: a supernode tile indexes outside its source values or block"

func rowUpdateVec(blk []float64, q int, rows, slot []int, vals []float64) {
	var ok bool
	if hasAVX512 {
		ok = rowUpdateAVX512(blk, q, rows, slot, vals)
	} else {
		ok = rowUpdateAVX2(blk, q, rows, slot, vals)
	}
	if !ok {
		panic(corruptTile)
	}
}

func runUpdateVec(blk []float64, rel []int, lv []float64, lb []int, q int) {
	full := fullFrom(blk, q, len(lb))
	var ok bool
	if hasAVX512 {
		ok = runUpdateAVX512(blk, rel, lv, lb, q, full)
	} else {
		ok = runUpdateAVX2(blk, rel, lv, lb, q, full)
	}
	if !ok {
		panic(corruptTile)
	}
}

// fullFrom returns the least d ≤ run such that the multiplier rows
// q+d..q+run-1 of a tile block are nonzero in every lane.
func fullFrom(blk []float64, q, run int) int {
	for d := run; d > 0; d-- {
		for _, u := range (*[snTileCols]float64)(blk[(q+d-1)*snTileCols:]) {
			if u == 0 {
				return d
			}
		}
	}
	return 0
}

func axpyVec(dst, src []float64, s float64) {
	if !axpyAVX2(dst, src, s) {
		panic(corruptTile)
	}
}

func divByVec(x []float64, s float64) { divByAVX2(x, s) }

// rowUpdateAVX2 runs rowUpdateGo's loop on the 16 lanes of each target
// row, selecting the result in the live ones. It returns false and writes
// nothing when len(vals) < len(rows) or the multiplier row q is not a
// whole row of blk. It returns false at the first rows[t] that does not
// index slot or whose target row slot[rows[t]] is not a whole row of blk,
// leaving that row and the later ones unwritten, as the Go loop's bounds
// checks would.
//
//go:noescape
func rowUpdateAVX2(blk []float64, q int, rows, slot []int, vals []float64) (ok bool)

// runUpdateAVX2 runs runUpdateGo's loop, masked for the multiplier rows
// before full and unmasked from full on, which the caller guarantees are
// nonzero in every lane (full > len(lb) counts as len(lb)). It returns
// false and writes nothing when a target row rel[t] or a multiplier row
// q..q+len(lb)-1 is not a whole row of blk, or when an offset lb[d] does
// not lie in [0, len(lv)-len(rel)].
//
//go:noescape
func runUpdateAVX2(blk []float64, rel []int, lv []float64, lb []int, q, full int) (ok bool)

// rowUpdateAVX512 is rowUpdateAVX2 on two ZMM registers per target row,
// with the same checks and results.
//
//go:noescape
func rowUpdateAVX512(blk []float64, q int, rows, slot []int, vals []float64) (ok bool)

// runUpdateAVX512 is runUpdateAVX2 holding four target rows in registers
// (then two, then one), with the same checks and results.
//
//go:noescape
func runUpdateAVX512(blk []float64, rel []int, lv []float64, lb []int, q, full int) (ok bool)

// axpyAVX2 runs axpyGo's loop. It returns false and writes nothing when
// len(src) < len(dst).
//
//go:noescape
func axpyAVX2(dst, src []float64, s float64) (ok bool)

// divByAVX2 runs divByGo's loop.
//
//go:noescape
func divByAVX2(x []float64, s float64)
