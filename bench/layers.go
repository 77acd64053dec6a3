package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	basker "repro"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/gp"
	"repro/internal/klu"
	"repro/internal/matgen"
	"repro/internal/order/amd"
	"repro/internal/order/btf"
	"repro/internal/order/matching"
	"repro/internal/order/nd"
	"repro/internal/sparse"
	"repro/serve"
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// maxReps caps any probe's repetitions, however fast one is.
const maxReps = 200

// repeat calls f until it has run at least minReps times and for at least
// budget, at most maxReps times, or until it fails.
func repeat(budget time.Duration, minReps int, f func() error) error {
	start := time.Now()
	for n := 0; n < maxReps && (n < minReps || time.Since(start) < budget); n++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// timeReps repeats f as repeat does and returns each call's duration in ms.
func timeReps(budget time.Duration, minReps int, f func()) []float64 {
	var out []float64
	repeat(budget, minReps, func() error {
		t0 := time.Now()
		f()
		out = append(out, time.Since(t0).Seconds()*1e3)
		return nil
	})
	return out
}

// allocsPerOp counts heap allocations per call of f. Nothing else may be
// running.
func allocsPerOp(reps int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// luFlops is the floating-point operation count of a left-looking LU whose
// factors have the patterns of l (unit diagonal stored) and u (diagonal
// stored): every off-diagonal U(k,j) costs a multiply and an add for each
// sub-diagonal entry of L(:,k), and every column of L is divided by its
// pivot. Computed from the patterns, not measured.
func luFlops(l, u *sparse.CSC) int64 {
	var flops int64
	for j := 0; j < u.N; j++ {
		for p := u.Colptr[j]; p < u.Colptr[j+1]; p++ {
			if k := u.Rowidx[p]; k != j {
				flops += 2 * int64(l.Colptr[k+1]-l.Colptr[k]-1)
			}
		}
		flops += int64(l.Colptr[j+1] - l.Colptr[j] - 1)
	}
	return flops
}

// battery peels the layers on one input: it calls each layer's public
// functions directly, with the same matrix, values and right-hand sides the
// workload's ops use, and records one metric per call kind. slice is the
// time each timing probe may spend beyond its minimum repetitions.
type battery struct {
	e     env
	in    probeInput
	slice time.Duration
	par   int // threads of the parallel probes: every CPU, up to four
	m     map[string]float64
	step  int // rotates through in.vals
}

func runBattery(e env, in probeInput, budget time.Duration) (map[string]float64, error) {
	b := &battery{e: e, in: in, slice: budget / 60, par: min(e.nproc, 4), m: map[string]float64{}}
	for _, probe := range []func() error{b.sparse, b.order, b.core, b.dense, b.trisolve, b.klu, b.pool, b.serve} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return b.m, nil
}

// time returns the median duration of f in ms.
func (b *battery) time(minReps int, f func()) float64 {
	return median(timeReps(b.slice, minReps, f))
}

// ms records the median duration of f under name.
func (b *battery) ms(name string, minReps int, f func()) float64 {
	v := b.time(minReps, f)
	b.m[name] = v
	return v
}

// nextStep returns the input matrix carrying the next value vector.
func (b *battery) nextStep() *sparse.CSC {
	b.step++
	return withValues(b.in.a, b.in.vals[b.step%len(b.in.vals)])
}

func (b *battery) sparse() error {
	a := b.in.a
	cols := columnsOf(a)
	asm := func() { sink = assemble(a.N, a.Rowidx, cols, a.Values) }
	b.ms("sparse.assemble_ms", 3, asm)
	b.m["sparse.assemble_allocs"] = allocsPerOp(3, asm)
	return nil
}

// order times the ordering passes on the matrix and on its largest BTF
// block, then hands that block, AMD-ordered as KLU would factor it, to the
// gp probes.
func (b *battery) order() error {
	a := b.in.a
	b.ms("order.matching_ms", 3, func() { sink, _ = matching.Bottleneck(a) })
	var form *btf.Form
	var err error
	b.ms("order.btf_ms", 3, func() { form, err = btf.Compute(a, true) })
	if err != nil {
		return fmt.Errorf("order probe: %w", err)
	}
	perm := a.Permute(form.RowPerm, form.ColPerm)
	r0, r1 := 0, 0
	for k := 0; k < form.NumBlocks(); k++ {
		if lo, hi := form.BlockPtr[k], form.BlockPtr[k+1]; hi-lo > r1-r0 {
			r0, r1 = lo, hi
		}
	}
	blk := perm.ExtractBlock(r0, r1, r0, r1)
	var local []int
	b.ms("order.amd_ms", 3, func() { local = amd.Order(blk) })
	leaves := 2
	for leaves*2 <= b.par {
		leaves *= 2
	}
	b.ms("order.nd_ms", 3, func() { sink, err = nd.Compute(blk, leaves) })
	if err != nil {
		return fmt.Errorf("order probe: nd: %w", err)
	}
	return b.gp(blk.Permute(local, local))
}

func (b *battery) gp(blk *sparse.CSC) error {
	ws := gp.NewWorkspace(blk.N)
	opts := gp.Options{PivotTol: gp.DefaultPivotTol}
	var f *gp.Factors
	var err error
	factorMS := b.ms("gp.factor_ms", 3, func() { f, err = gp.Factor(blk, 4*blk.Nnz(), opts, ws) })
	if err != nil {
		return fmt.Errorf("gp probe: %w", err)
	}
	b.ms("gp.refactor_ms", 3, func() { err = f.Refactor(blk, ws) })
	if err != nil {
		return fmt.Errorf("gp probe: refactor: %w", err)
	}
	flops := float64(luFlops(f.L, f.U))
	b.m["gp.flops"] = flops
	b.m["gp.mflop_s"] = flops / (factorMS * 1e-3) / 1e6
	return nil
}

func (b *battery) core() error {
	a := b.in.a
	opts := core.DefaultOptions()
	opts.Threads = b.par
	var sym *core.Symbolic
	var num *core.Numeric
	var err error
	b.ms("core.analyze_ms", 3, func() { sym, err = core.Analyze(a, opts) })
	if err != nil {
		return fmt.Errorf("core probe: analyze: %w", err)
	}
	b.ms("core.factor_ms", 3, func() { num, err = core.Factor(a, sym) })
	if err != nil {
		return fmt.Errorf("core probe: factor: %w", err)
	}
	b.ms("core.factor_into_ms", 3, func() { err = num.FactorInto(a) })
	if err != nil {
		return fmt.Errorf("core probe: factor into: %w", err)
	}

	newFactorization := func(o basker.Options) (*basker.Factorization, error) {
		f, err := basker.New(o).Factor(a)
		if err == nil {
			err = f.Refactor(b.nextStep()) // builds the entry maps
		}
		return f, err
	}
	par, err := newFactorization(basker.Options{Threads: b.par})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	serial, err := newFactorization(basker.Options{Threads: 1})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	refresh := func(f *basker.Factorization) func() {
		return func() {
			if e := f.Refactor(b.nextStep()); e != nil {
				err = e
			}
		}
	}
	parMS := b.ms("core.refresh_ms", 5, refresh(par))
	serialMS := b.ms("core.refresh_serial_ms", 5, refresh(serial))
	b.m["core.par_speedup"] = serialMS / parMS
	b.m["core.refresh_allocs_per_op"] = allocsPerOp(5, refresh(par))
	st := par.Stats(a)
	b.m["core.nnz_lu"] = float64(st.NnzLU)
	b.m["core.fill_density"] = st.FillDensity
	b.m["core.btf_blocks"] = float64(st.BTFBlocks)
	b.m["core.nd_blocks"] = float64(st.NDBlocks)
	b.m["core.dense_kernel_hits"] = float64(st.DenseKernelHits)
	b.m["core.supernode_hits"] = float64(st.SupernodeHits)
	b.m["core.pivot_fallbacks"] = float64(st.PivotFallbacks)
	b.m["core.sync_waits"] = float64(st.SyncWaits)

	// Incremental refresh: two value vectors that differ in one clustered
	// 1 % window of columns, alternated.
	window := matgen.ChangeSet(a.N, 0.01, 1, true)
	lo, hi := a.Colptr[window[0]], a.Colptr[window[len(window)-1]+1]
	v0 := append([]float64(nil), b.in.vals[0]...)
	v1 := append([]float64(nil), v0...)
	copy(v1[lo:hi], b.in.vals[1][lo:hi])
	pair := [2]*sparse.CSC{withValues(a, v0), withValues(a, v1)}
	flip := 0
	if err = par.Refactor(pair[0]); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	b.ms("core.partial_ms", 5, func() {
		flip ^= 1
		if e := par.RefactorAuto(pair[flip]); e != nil {
			err = e
		}
	})
	b.m["core.dirty_blocks"] = float64(par.Stats(a).DirtyBlocks)
	b.ms("core.partial_explicit_ms", 5, func() {
		flip ^= 1
		if e := par.RefactorPartial(pair[flip], window); e != nil {
			err = e
		}
	})

	// The same refresh with the kernel tracer on gives the scheduler's own
	// account of the sweep and what recording it costs.
	traced, terr := newFactorization(basker.Options{Threads: b.par, Trace: basker.NewTracer(0)})
	if terr != nil {
		return fmt.Errorf("core probe: traced: %w", terr)
	}
	// Traced and untraced refreshes alternate on the same input.
	var plainMS, tracedMS []float64
	repeat(2*b.slice, 5, func() error {
		v := b.nextStep()
		for _, side := range []struct {
			f  *basker.Factorization
			ms *[]float64
		}{{par, &plainMS}, {traced, &tracedMS}} {
			t0 := time.Now()
			if e := side.f.Refactor(v); e != nil {
				err = e
			}
			*side.ms = append(*side.ms, time.Since(t0).Seconds()*1e3)
		}
		return nil
	})
	b.m["core.trace_overhead_frac"] = (median(tracedMS) - median(plainMS)) / median(plainMS)
	prof, _ := traced.Profile(basker.PhaseRefactor)
	b.m["core.sync_frac"] = prof.SyncFraction
	b.m["core.utilization"] = prof.MeanUtilization()
	b.m["core.imbalance"] = prof.Imbalance()
	if err != nil {
		return fmt.Errorf("core probe: refresh: %w", err)
	}
	return nil
}

func (b *battery) dense() error {
	n := b.e.size.denseN
	rng := rand.New(rand.NewSource(b.e.seed))
	src := make([]float64, n*n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		src[i*n+i] += float64(n)
	}
	lu, rhs, c := dense.New(n, n), dense.New(n, n), dense.New(n, n)
	rows := make([]int, n)
	var err error
	n3 := float64(n) * float64(n) * float64(n)
	luMS := b.time(3, func() {
		copy(lu.Data, src)
		for i := range rows {
			rows[i] = i
		}
		err = lu.LUPartialPivot(gp.DefaultPivotTol, false, rows)
	})
	if err != nil {
		return fmt.Errorf("dense probe: %w", err)
	}
	trsmMS := b.time(3, func() {
		copy(rhs.Data, src)
		dense.TRSMLowerUnit(lu, n, rhs)
	})
	gemmMS := b.time(3, func() { dense.GEMMSub(c, lu, rhs) })
	b.m["dense.lu_gflop_s"] = 2.0 / 3.0 * n3 / (luMS * 1e-3) / 1e9
	b.m["dense.trsm_gflop_s"] = n3 / (trsmMS * 1e-3) / 1e9
	b.m["dense.gemm_gflop_s"] = 2 * n3 / (gemmMS * 1e-3) / 1e9
	return nil
}

func (b *battery) trisolve() error {
	a := b.in.a
	f, err := basker.New(basker.Options{Threads: 1}).Factor(a)
	if err != nil {
		return fmt.Errorf("trisolve probe: %w", err)
	}
	x := make([]float64, a.N)
	rhs := b.in.rhs
	i := 0
	solve := func() {
		i++
		copy(x, rhs[i%len(rhs)])
		if e := f.Solve(x); e != nil {
			err = e
		}
	}
	solveMS := b.ms("trisolve.solve_ms", 5, solve)
	b.m["trisolve.solve_allocs_per_op"] = allocsPerOp(5, solve)
	bs := newBatch(a.N)
	manyMS := b.time(5, func() {
		for c := range bs {
			copy(bs[c], rhs[c%len(rhs)])
		}
		if e := f.SolveMany(bs); e != nil {
			err = e
		}
	})
	b.m["trisolve.solve_many_ms_per_rhs"] = manyMS / batchWidth
	b.m["trisolve.batch_gain"] = solveMS / (manyMS / batchWidth)
	bytesPerSolve := 12*float64(f.Stats(a).NnzLU) + 16*float64(a.N)
	b.m["trisolve.bytes_per_solve"] = bytesPerSolve
	b.m["trisolve.gb_s"] = bytesPerSolve / (solveMS * 1e-3) / 1e9

	// Solves per second with every load goroutine on the one factorization,
	// over solves per second with one.
	rate := func(workers int) float64 {
		var wg sync.WaitGroup
		counts := make([]int, workers)
		start := time.Now()
		deadline := start.Add(2 * b.slice)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				y := make([]float64, a.N)
				for time.Now().Before(deadline) {
					copy(y, rhs[w%len(rhs)])
					if e := f.Solve(y); e != nil {
						return
					}
					counts[w]++
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, c := range counts {
			total += c
		}
		return float64(total) / time.Since(start).Seconds()
	}
	b.m["trisolve.concurrent_scaling"] = rate(b.e.nproc) / rate(1)
	if err != nil {
		return fmt.Errorf("trisolve probe: %w", err)
	}
	return nil
}

func (b *battery) klu() error {
	a := b.in.a
	var sym *klu.Symbolic
	var num *klu.Numeric
	var err error
	b.ms("klu.analyze_ms", 3, func() { sym, err = klu.Analyze(a, klu.DefaultOptions()) })
	if err != nil {
		return fmt.Errorf("klu probe: %w", err)
	}
	b.ms("klu.factor_ms", 3, func() { num, err = klu.Factor(a, sym) })
	if err != nil {
		return fmt.Errorf("klu probe: %w", err)
	}
	b.ms("klu.refactor_ms", 3, func() {
		if e := num.Refactor(b.nextStep()); e != nil {
			err = e
		}
	})
	x := make([]float64, a.N)
	b.ms("klu.solve_ms", 5, func() {
		copy(x, b.in.rhs[0])
		num.Solve(x)
	})
	if err != nil {
		return fmt.Errorf("klu probe: %w", err)
	}
	return nil
}

func (b *battery) pool() error {
	a := b.in.a
	opts := basker.PoolOptions{Options: basker.Options{Threads: 1}, MeterLock: true}
	var err error
	b.ms("pool.miss_ms", 2, func() {
		lease, e := basker.NewPool(opts).Acquire(a)
		if e != nil {
			err = e
			return
		}
		lease.Release()
	})
	if err != nil {
		return fmt.Errorf("pool probe: miss: %w", err)
	}
	// One idle factorization while hits are timed against direct refreshes,
	// so both refresh from the same previous values.
	p := basker.NewPool(opts)
	lease, err := p.Acquire(a)
	if err == nil {
		err = lease.Refactor(b.nextStep()) // builds the entry maps
		lease.Release()
	}
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}
	direct, err := basker.New(opts.Options).Factor(a)
	if err == nil {
		err = direct.Refactor(b.nextStep())
	}
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}
	// Hit and direct refresh alternate on the same input, so their
	// difference is the pool's own bookkeeping.
	var hits, overheads []float64
	err = repeat(2*b.slice, 5, func() error {
		v := b.nextStep()
		t0 := time.Now()
		lease, e := p.Acquire(v)
		if e != nil {
			return fmt.Errorf("pool probe: hit: %w", e)
		}
		lease.Release()
		hit := time.Since(t0).Seconds() * 1e3
		t0 = time.Now()
		if e := direct.RefactorAuto(v); e != nil {
			return fmt.Errorf("pool probe: direct: %w", e)
		}
		hits = append(hits, hit)
		overheads = append(overheads, hit-time.Since(t0).Seconds()*1e3)
		return nil
	})
	if err != nil {
		return err
	}
	b.m["pool.hit_ms"] = median(hits)
	b.m["pool.overhead_ms"] = median(overheads)
	b.ms("pool.factor_ms", 3, func() {
		lease, e := p.Factor(b.nextStep())
		if e != nil {
			err = e
			return
		}
		lease.Release()
	})
	if err != nil {
		return fmt.Errorf("pool probe: factor: %w", err)
	}

	// One idle factorization per load goroutine, so the concurrent phase
	// measures hits.
	leases := make([]*basker.Lease, b.e.nproc)
	for w := range leases {
		if leases[w], err = p.Acquire(b.nextStep()); err != nil {
			return fmt.Errorf("pool probe: %w", err)
		}
	}
	for _, l := range leases {
		l.Release()
	}
	before := p.Stats()
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(2 * b.slice)
	for w := 0; w < b.e.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				lease, e := p.Acquire(withValues(a, b.in.vals[i%len(b.in.vals)]))
				if e != nil {
					return
				}
				lease.Release()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	st := p.Stats()
	b.m["pool.lock_wait_frac"] = (st.LockWaitSeconds - before.LockWaitSeconds) / (wall * float64(b.e.nproc))
	b.m["pool.hit_rate"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	b.m["pool.bytes_cached"] = float64(st.BytesCached)
	b.m["pool.evictions"] = float64(st.Evictions + st.MemEvictions)
	return nil
}

// serve peels one refresh request: whole op, round trip with a ready body,
// handler without a socket, pool without a handler, and the JSON passes on
// the real bodies. Per-class latencies come from the closed-loop mix.
func (b *battery) serve() error {
	rig := b.in.rig
	if rig == nil {
		var err error
		if rig, err = newServeRig(b.e.seed, 1, []*sparse.CSC{b.in.a}); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		defer rig.close()
	}
	var pat *servePattern
	for _, p := range rig.pats {
		if p.a == b.in.a {
			pat = p
		}
	}
	if pat == nil {
		return fmt.Errorf("serve probe: input matrix is not served by the rig")
	}

	seg := rig.run(time.Now().Add(6*b.slice), nil, 1)
	classes := map[int][]float64{}
	for _, s := range seg.samples {
		classes[requestClass(s.class)] = append(classes[requestClass(s.class)], s.ms)
	}
	for class, name := range classNames {
		for len(classes[class]) < 3 {
			d, ok := rig.do(0, rig.build(rig.workers[0], class, pat), nil)
			if !ok {
				seg.failed++
			}
			classes[class] = append(classes[class], d.Seconds()*1e3)
		}
		b.m["serve."+name+"_p50_ms"] = median(classes[class])
	}
	b.m["serve.p99_ms"] = percentile(values(seg.samples), 99)
	if seg.failed > 0 {
		return fmt.Errorf("serve probe: %d requests failed their check", seg.failed)
	}

	// Every peeled call carries other values than the call before it, so
	// each one pays for a real refresh.
	k := 0
	refresh := func() serveReq {
		k++
		return serveReq{class: classRefresh, pat: pat, vals: pat.vals[k%len(pat.vals)], b: pat.rhs[k%len(pat.rhs)]}
	}
	var whole, encode, trip, handler, direct, decodeReq, encodeResp, decodeResp []float64
	var reqBytes, respBytes int
	x := make([]float64, pat.a.N)
	err := repeat(6*b.slice, 5, func() error {
		d, ok := rig.do(0, refresh(), nil)
		if !ok {
			return fmt.Errorf("serve probe: refresh request failed its check")
		}
		whole = append(whole, d.Seconds()*1e3)

		req := refresh()
		path, in := req.wire()
		t0 := time.Now()
		body, err := json.Marshal(in)
		encode = append(encode, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		t0 = time.Now()
		raw, err := rig.roundTrip(path, body)
		trip = append(trip, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		reqBytes, respBytes = len(body), len(raw)

		_, in = refresh().wire()
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		rr := httptest.NewRecorder()
		hreq := httptest.NewRequest("POST", path, bytes.NewReader(body))
		t0 = time.Now()
		rig.srv.Handler().ServeHTTP(rr, hreq)
		handler = append(handler, time.Since(t0).Seconds()*1e3)
		if rr.Code != 200 {
			return fmt.Errorf("serve probe: handler status %d", rr.Code)
		}

		req = refresh()
		t0 = time.Now()
		lease, err := rig.pool.Acquire(withValues(pat.a, req.vals))
		if err != nil {
			return fmt.Errorf("serve probe: pool: %w", err)
		}
		copy(x, req.b)
		err = lease.Solve(x)
		lease.Release()
		direct = append(direct, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return fmt.Errorf("serve probe: pool solve: %w", err)
		}

		var sreq serve.SolveRequest
		t0 = time.Now()
		err = json.Unmarshal(body, &sreq)
		decodeReq = append(decodeReq, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		t0 = time.Now()
		sink, _ = json.Marshal(serve.SolveResponse{X: x, ElapsedMS: 1})
		encodeResp = append(encodeResp, time.Since(t0).Seconds()*1e3)
		var sresp serve.SolveResponse
		t0 = time.Now()
		err = json.Unmarshal(raw, &sresp)
		decodeResp = append(decodeResp, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	handlerMS, tripMS, directMS := median(handler), median(trip), median(direct)
	b.m["serve.handler_ms"] = handlerMS
	b.m["serve.transport_ms"] = tripMS - handlerMS
	b.m["serve.json_overhead_ms"] = handlerMS - directMS
	b.m["serve.json_share"] = (handlerMS - directMS) / handlerMS
	b.m["serve.decode_ms"] = median(decodeReq)
	b.m["serve.encode_ms"] = median(encodeResp)
	b.m["serve.req_bytes"] = float64(reqBytes)
	b.m["serve.resp_bytes"] = float64(respBytes)
	// The peeled pieces added back up — transport, JSON and pool telescope
	// to the round trip — against the op timed as a whole.
	peeled := median(encode) + tripMS + median(decodeResp)
	b.m["harness.peel_gap_frac"] = math.Abs(peeled-median(whole)) / median(whole)

	st, err := rig.stats()
	if err != nil {
		return fmt.Errorf("serve probe: stats: %w", err)
	}
	b.m["serve.shed"] = float64(st.Server.Shed)
	b.m["serve.failures"] = float64(st.Server.Failures)
	return nil
}
