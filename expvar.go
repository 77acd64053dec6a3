package basker

import "expvar"

// PublishExpvar publishes this pool's cache counters (PoolStats) under
// the given expvar name as a JSON object, so any HTTP server exposing
// /debug/vars makes them scrapable (Prometheus expvar collectors read
// the same endpoint). Each read snapshots the live counters. Publishing
// the same name twice panics, per expvar semantics — publish once at
// startup.
func (p *Pool) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return p.Stats() }))
}

// PublishTraceExpvar publishes a tracer's cumulative per-phase totals
// (sweep counts plus wall/work/wait seconds, e.g. "refactor_sweeps",
// "refactor_wait_seconds") under the given expvar name as a flat JSON
// object of float64s — the shape Prometheus-style scrapers flatten into
// counters. Each read snapshots the live totals; a nil tracer publishes
// an empty object.
func PublishTraceExpvar(name string, tr *Tracer) {
	expvar.Publish(name, expvar.Func(func() any { return tr.CumulativeSeconds() }))
}
