//go:build !amd64 || race

package gp

// hasAVX2 is false where gp has no vector kernel, AVX2 or AVX-512 — neither
// the panel sweeps nor the supernode refresh tiles: off amd64, and under the
// race detector, which cannot see the memory accesses of assembly and so
// must be given the Go loops to instrument.
const hasAVX2 = false

func (f *Factors) lsolvePanelVec(y []PanelRow) { f.lsolvePanelGo(y) }
func (f *Factors) usolvePanelVec(y []PanelRow) { f.usolvePanelGo(y) }
