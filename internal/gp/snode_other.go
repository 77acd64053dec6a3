//go:build !amd64 || race

package gp

// The supernode refresh kernels' vector entry points where there is no
// vector kernel (see hasAVX2): rowUpdate, runUpdate, axpy and divBy. The
// dispatchers never call them there; each does the Go loop's work, so a
// call would still be correct.

func rowUpdateVec(blk []float64, q int, rows, slot []int, vals []float64) {
	rowUpdateGo(blk, q, rows, slot, vals)
}

func runUpdateVec(blk []float64, rel []int, lv []float64, lb []int, q int) {
	runUpdateGo(blk, rel, lv, lb, q)
}

func axpyVec(dst, src []float64, s float64) { axpyGo(dst, src, s) }

func divByVec(x []float64, s float64) { divByGo(x, s) }
