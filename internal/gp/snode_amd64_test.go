//go:build amd64 && !race

package gp

// vectorTilePaths returns every vector pair of tile kernels this CPU runs,
// AVX2 and then AVX-512, each called directly rather than through the
// start-up choice, so a host with AVX-512 still tests the AVX2 pair.
func vectorTilePaths() []tilePath {
	var paths []tilePath
	if hasAVX2 {
		paths = append(paths, asmTilePath("avx2", rowUpdateAVX2, runUpdateAVX2))
	}
	if hasAVX512 {
		paths = append(paths, asmTilePath("avx512", rowUpdateAVX512, runUpdateAVX512))
	}
	return paths
}

// asmTilePath wraps a pair of assembly tile kernels like rowUpdateVec and
// runUpdateVec do: full from fullFrom, a panic on a rejected index.
func asmTilePath(name string,
	row func(blk []float64, q int, rows, slot []int, vals []float64) bool,
	run func(blk []float64, rel []int, lv []float64, lb []int, q, full int) bool) tilePath {
	return tilePath{
		name: name,
		rowUpdate: func(blk []float64, q int, rows, slot []int, vals []float64) {
			if !row(blk, q, rows, slot, vals) {
				panic(corruptTile)
			}
		},
		runUpdate: func(blk []float64, rel []int, lv []float64, lb []int, q int) {
			if !run(blk, rel, lv, lb, q, fullFrom(blk, q, len(lb))) {
				panic(corruptTile)
			}
		},
	}
}
