//go:build amd64 && !race

package gp

// corruptTile is the panic message for a supernode tile whose source
// offsets or target rows lie outside the factor's values or the block.
const corruptTile = "gp: corrupt factor: a supernode tile indexes outside its source values or target column"

// tile41Vec runs tile41's vector kernel and returns how many leading rows
// of rel it applied.
func tile41Vec(rel []int, lv []float64, lb []int, col, u []float64) int {
	t := tile41AVX2(rel, lv, lb, col, u)
	if t < 0 {
		panic(corruptTile)
	}
	return t
}

// tile42Vec runs tile42's vector kernel and returns how many leading rows
// of rel it applied.
func tile42Vec(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64) int {
	t := tile42AVX2(rel, lv, lb, colA, colB, uA, uB)
	if t < 0 {
		panic(corruptTile)
	}
	return t
}

func axpyVec(dst, src []float64, s float64) {
	if !axpyAVX2(dst, src, s) {
		panic(corruptTile)
	}
}

func divByVec(x []float64, s float64) { divByAVX2(x, s) }

// tile41AVX2 runs tile41Go's loop over the leading rows = len(rel)&^3
// rows of rel, in 8-row tiles and a last 4-row tile, and returns rows. It
// returns -1 and writes nothing when len(u) < len(lb), when an offset
// lb[d] does not lie in [0, len(lv)-rows] or when a row rel[t], t < rows,
// does not lie in [0, len(col)).
//
//go:noescape
func tile41AVX2(rel []int, lv []float64, lb []int, col, u []float64) (done int)

// tile42AVX2 is tile41AVX2 for tile42Go on two target columns; a row must
// lie in both.
//
//go:noescape
func tile42AVX2(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64) (done int)

// axpyAVX2 runs axpyGo's loop. It returns false and writes nothing when
// len(src) < len(dst).
//
//go:noescape
func axpyAVX2(dst, src []float64, s float64) (ok bool)

// divByAVX2 runs divByGo's loop.
//
//go:noescape
func divByAVX2(x []float64, s float64)
