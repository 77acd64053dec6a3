//go:build amd64 && !race

package gp

import "fmt"

// hasAVX2 reports whether the CPU has AVX and AVX2 (CPUID.1:ECX bit 28,
// CPUID.7:EBX bit 5) and the OS saves the YMM registers (CPUID.1:ECX bit
// 27, OSXSAVE, and XCR0 bits 1 and 2). It gates every vector kernel of gp:
// without it every kernel runs its Go loop. With it the panel sweeps
// (panel_amd64.s), axpy and divBy run AVX2, and the supernode tile kernels
// (snode_amd64.s) run AVX2 or, where hasAVX512 holds, AVX-512.
var hasAVX2 = detectAVX2()

// hasAVX512 picks the AVX-512 pair of tile kernels (rowUpdateAVX512,
// runUpdateAVX512) over the AVX2 pair. They use AVX512F instructions only
// (KMOVW, not KMOVB; VPXORQ, not VXORPD), so it requires AVX512F
// (CPUID.7:EBX bit 16) and that the OS saves the opmask and all 32 ZMM
// registers (XCR0 bits 5, 6 and 7) on top of hasAVX2.
var hasAVX512 = hasAVX2 && detectAVX512()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func detectAVX512() bool {
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}

// panelChunk is the most columns one kernel call sweeps. Assembly is not
// asynchronously preemptible, so the chunks bound how long a panel sweep
// holds off the scheduler: tens of microseconds on the 30k-row xyce leaf.
const panelChunk = 2048

func (f *Factors) lsolvePanelVec(y []PanelRow) {
	n, l := f.N, f.L
	_ = l.Colptr[n]
	y = y[:n:len(y)] // panics unless n <= len(y): the kernel bounds rows by n
	lim := min(len(l.Rowidx), len(l.Values))
	for j0 := 0; j0 < n; j0 += panelChunk {
		if j := lsolvePanelAVX2(y, l.Colptr, l.Rowidx, l.Values, lim, j0, min(j0+panelChunk, n)); j >= 0 {
			panic(corruptColumn("L", j))
		}
	}
}

func (f *Factors) usolvePanelVec(y []PanelRow) {
	n, u := f.N, f.U
	_ = u.Colptr[n]
	y = y[:n:len(y)]
	lim := min(len(u.Rowidx), len(u.Values)-1) // p1 <= lim bounds the pivot slot too
	for j1 := n; j1 > 0; j1 -= panelChunk {
		if j := usolvePanelAVX2(y, u.Colptr, u.Rowidx, u.Values, lim, max(j1-panelChunk, 0), j1); j >= 0 {
			panic(corruptColumn("U", j))
		}
	}
}

// corruptColumn is the panic message for a column whose entry range, pivot
// slot or a row lies outside its factor's storage or the panel.
func corruptColumn(factor string, j int) string {
	return fmt.Sprintf("gp: corrupt factor: %s column %d indexes outside its storage or the panel", factor, j)
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// lsolvePanelAVX2 runs lsolvePanelGo's loop over columns [j0, j1) of an L
// with column pointers colptr. It returns -1, or the first column whose
// entry range [colptr[j]+1, colptr[j+1]) does not lie in [0, lim] or that
// holds a row outside y; that column is left unapplied.
//
//go:noescape
func lsolvePanelAVX2(y []PanelRow, colptr, rowidx []int, values []float64, lim, j0, j1 int) (bad int)

// usolvePanelAVX2 runs usolvePanelGo's loop over columns j1-1 down to j0
// of a U with column pointers colptr. It returns -1, or the first column
// whose entry range [colptr[j], colptr[j+1]-1) and pivot slot colptr[j+1]-1
// do not lie in [0, lim] or that holds a row outside y; nothing of that
// column is written.
//
//go:noescape
func usolvePanelAVX2(y []PanelRow, colptr, rowidx []int, values []float64, lim, j0, j1 int) (bad int)
