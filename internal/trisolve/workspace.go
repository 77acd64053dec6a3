package trisolve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/gp"
)

// Workspace holds every per-call scratch buffer of the solve phase: the
// pivot-order right-hand side, the iterative-refinement residuals, and the
// row-interleaved panel of the multi-RHS sweep. Workspaces are owned
// by a Solver's sync.Pool, so steady-state solves allocate nothing and any
// number of goroutines can solve concurrently, each with its own set.
type Workspace struct {
	y   []float64 // pivot-order RHS, length n
	r   []float64 // refinement residual, length n (lazily sized)
	rhs []float64 // refinement saved RHS, length n (lazily sized)
	den []float64 // Oettli–Prager denominator |A||x|+|b|, length n (lazily sized)

	panel []gp.PanelRow // row-interleaved multi-RHS panel, n rows (lazily sized)

	// ctl is the per-call cancellation control of an armed (cancellable or
	// stall-watched) batch solve: the sweep monitor cancels through it and
	// the panel workers poll it. Living in the pooled workspace keeps armed
	// solves as reentrant as plain ones.
	ctl core.SweepControl
}

func newWorkspace(sym *core.Symbolic) *Workspace {
	return &Workspace{y: make([]float64, sym.N)}
}

// refine returns the residual, saved-RHS and backward-error denominator
// buffers, sizing them on first use so plain solves never pay for
// refinement scratch.
func (w *Workspace) refine(n int) (r, rhs, den []float64) {
	if len(w.r) < n {
		w.r = make([]float64, n)
		w.rhs = make([]float64, n)
		w.den = make([]float64, n)
	}
	return w.r[:n], w.rhs[:n], w.den[:n]
}

// panelBuf returns the row-interleaved panel, sizing it on first use so
// callers that only ever Solve never pay for it.
func (w *Workspace) panelBuf(n int) []gp.PanelRow {
	if w.panel == nil {
		w.panel = make([]gp.PanelRow, n)
	}
	return w.panel
}

// wsPool is a typed sync.Pool of Workspaces for one factorization shape.
type wsPool struct {
	p sync.Pool
}

func newWSPool(sym *core.Symbolic) *wsPool {
	return &wsPool{p: sync.Pool{New: func() any { return newWorkspace(sym) }}}
}

func (wp *wsPool) get() *Workspace  { return wp.p.Get().(*Workspace) }
func (wp *wsPool) put(w *Workspace) { wp.p.Put(w) }
