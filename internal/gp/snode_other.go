//go:build !amd64 || race

package gp

// The supernode tiles' vector entry points where there is no vector
// kernel (see hasAVX2). The dispatchers never call them there; each does
// the Go loop's work, so a call would still be correct.

func tile41Vec(rel []int, lv []float64, lb []int, col, u []float64) int { return 0 }

func tile42Vec(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64) int { return 0 }

func axpyVec(dst, src []float64, s float64) { axpyGo(dst, src, s) }

func divByVec(x []float64, s float64) { divByGo(x, s) }
