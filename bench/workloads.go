package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	basker "repro"
	"repro/internal/klu"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// env is what a workload is built from: the seed, the host's parallelism
// and the sizing.
type env struct {
	seed  int64
	T     int // solver threads of the library workloads; see solverThreads
	nproc int // load-generating goroutines / connections
	size  sizing
}

// segment is the outcome of one timed stretch of ops.
type segment struct {
	samples   []sample
	rate      float64 // ops per second of time spent inside ops, summed over workers
	attempted int
	failed    int
}

// instance is a workload after set-up: inputs generated, solver, pool or
// server built, first factorization done, caches warm.
type instance interface {
	// runOps runs timed, checked ops until the deadline; rec, when non-nil,
	// receives a span per layer call.
	runOps(deadline time.Time, rec *recorder) segment
	// runBaseline runs the same ops on the same inputs through internal/klu.
	runBaseline(deadline time.Time) ([]sample, error)
	// probe names the input the per-layer battery peels.
	probe() probeInput
	close()
}

// probeInput is one pattern with a few value vectors and right-hand sides.
// rig, when set, is the workload's own server for the serve probes.
type probeInput struct {
	a    *sparse.CSC
	vals [][]float64
	rhs  [][]float64
	rig  *serveRig
}

type workload struct {
	name string
	why  string
	// perClassSpeedup makes speedup_vs_klu a geomean over the input classes
	// that both the ops and the baseline ran.
	perClassSpeedup bool
	setup           func(env) (instance, error)
}

var workloads = []workload{
	{name: "xyce_step", why: "full restamp, Refactor, Solve on a low-fill 30k circuit: core's refresh sweep and trisolve do all the work",
		setup: func(e env) (instance, error) {
			return newStepInstance(e, xycePattern(e.size.xyceN, e.size.xyceBlocks), false)
		}},
	{name: "xyce_local", why: "same circuit, 1% of columns restamped, RefactorAuto: core's diff and dirty closure instead of the full sweep",
		setup: func(e env) (instance, error) {
			return newStepInstance(e, xycePattern(e.size.xyceN, e.size.xyceBlocks), true)
		}},
	{name: "grid3d_step", why: "fill-heavy 3D-grid core: gp and dense kernels inside the ND engine are the op, trisolve and wire do nothing",
		setup: func(e env) (instance, error) { return newStepInstance(e, gridPattern(e.size.gridN), false) }},
	{name: "cold_factor", why: "first contact with seven circuit classes: triplet assembly, ordering, Analyze and fresh Factor, no refresh",
		perClassSpeedup: true, setup: newColdInstance},
	{name: "solve_batch", why: "concurrent 8-vector SolveMany on one shared factorization: isolates the reentrant solve and its workspace pools",
		setup: newBatchInstance},
	{name: "serve_mixed", why: "closed-loop HTTP clients on four warmed patterns, refresh/batch/triplets/fresh mix: JSON, pool routing, assembly",
		perClassSpeedup: true, setup: func(e env) (instance, error) { return newServeInstance(e) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runLoop drives a closed loop of workers goroutines until the deadline.
// op runs one timed, checked operation for worker w and returns how long
// the operation itself took (checks excluded), its input class and whether
// its answer passed. The deadline is tested only every round ops, so
// workloads that cycle through input classes always finish the cycle.
func runLoop(workers, round int, deadline time.Time, op func(w int) (time.Duration, int, bool)) segment {
	type result struct {
		samples []sample
		busy    time.Duration
		failed  int
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			for done := false; !done; {
				for k := 0; k < round; k++ {
					d, class, ok := op(w)
					r.samples = append(r.samples, sample{ms: d.Seconds() * 1e3, class: class})
					r.busy += d
					if !ok {
						r.failed++
					}
				}
				done = !time.Now().Before(deadline)
			}
		}(w)
	}
	wg.Wait()
	var seg segment
	for _, r := range results {
		seg.samples = append(seg.samples, r.samples...)
		seg.rate += float64(len(r.samples)) / r.busy.Seconds()
		seg.attempted += len(r.samples)
		seg.failed += r.failed
	}
	return seg
}

// baselineLoop runs the KLU baseline's ops until the deadline, tested every
// round ops like runLoop's.
func baselineLoop(round int, deadline time.Time, op func() (time.Duration, int, error)) ([]sample, error) {
	var out []sample
	for {
		for k := 0; k < round; k++ {
			d, class, err := op()
			if err != nil {
				return nil, err
			}
			out = append(out, sample{ms: d.Seconds() * 1e3, class: class})
		}
		if !time.Now().Before(deadline) {
			return out, nil
		}
	}
}

// oracleEvery is how often an op's solution is also compared with an
// independent internal/klu solve of the same system.
const oracleEvery = 25

// stepInstance is the transient loop of xyce_step, xyce_local and
// grid3d_step: restamp values in place, refresh the factorization, solve.
type stepInstance struct {
	a     *sparse.CSC // live matrix the ops restamp
	ka    *sparse.CSC // same pattern, own values: the baseline's live matrix
	base  *sparse.CSC
	vals  [][]float64  // full value vectors, one per step
	local *localStamps // xyce_local's window stamps; nil for full restamps
	rhs   [][]float64
	x, kx []float64
	f     *basker.Factorization
	k     *klu.Numeric
	chk   *checker
	op    int
	kop   int
}

const stepValueSets = 8

func newStepInstance(e env, base *sparse.CSC, local bool) (*stepInstance, error) {
	s := &stepInstance{
		base: base, a: base.Clone(), ka: base.Clone(),
		rhs: rhsSet(base.N, stepValueSets, e.seed),
		x:   make([]float64, base.N), kx: make([]float64, base.N),
		chk: newChecker(base.N),
	}
	if local {
		s.local = newLocalStamps(base, e.seed)
	}
	s.vals = stepValues(base, stepValueSets, e.seed)
	var err error
	if s.f, err = basker.New(basker.Options{Threads: e.T}).Factor(s.a); err != nil {
		return nil, fmt.Errorf("first factor: %w", err)
	}
	if s.k, err = klu.FactorDirect(s.ka, klu.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("klu first factor: %w", err)
	}
	// The first refresh of each kind builds its entry maps; users pay that
	// once per pattern, so it belongs to set-up.
	for i := 0; i < 2; i++ {
		if _, ok := s.oneOp(nil); !ok {
			return nil, fmt.Errorf("warm-up op failed its check")
		}
		if _, err := s.oneBaseline(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stepInstance) stamp(a *sparse.CSC, i int) {
	if s.local != nil {
		s.local.apply(a, i)
	} else {
		copy(a.Values, s.vals[i%len(s.vals)])
	}
}

func (s *stepInstance) oneOp(rec *recorder) (time.Duration, bool) {
	i := s.op
	s.op++
	b := s.rhs[i%len(s.rhs)]
	root := rec.begin("op", -1, i, 0)
	t0 := time.Now()
	sp := rec.begin("stamp", root, i, 0)
	s.stamp(s.a, i)
	copy(s.x, b)
	rec.end(sp)
	var err error
	if s.local != nil {
		sp = rec.begin("core.partial", root, i, 0)
		err = s.f.RefactorAuto(s.a)
	} else {
		sp = rec.begin("core.refresh", root, i, 0)
		err = s.f.Refactor(s.a)
	}
	rec.end(sp)
	if err == nil {
		sp = rec.begin("trisolve.solve", root, i, 0)
		err = s.f.Solve(s.x)
		rec.end(sp)
	}
	d := time.Since(t0)
	sp = rec.begin("check", root, i, 0)
	ok := err == nil && s.chk.ok(s.a, s.x, b)
	if ok && i%oracleEvery == 0 {
		copy(s.ka.Values, s.a.Values)
		copy(s.kx, b)
		ok = s.k.Refactor(s.ka) == nil
		s.k.Solve(s.kx)
		ok = ok && agree(s.x, s.kx)
	}
	rec.end(sp)
	rec.end(root)
	return d, ok
}

// oneBaseline is KLU's only option for either loop: full Refactor + Solve.
func (s *stepInstance) oneBaseline() (time.Duration, error) {
	i := s.kop
	s.kop++
	t0 := time.Now()
	s.stamp(s.ka, i)
	copy(s.kx, s.rhs[i%len(s.rhs)])
	if err := s.k.Refactor(s.ka); err != nil {
		return 0, fmt.Errorf("klu baseline refactor: %w", err)
	}
	s.k.Solve(s.kx)
	return time.Since(t0), nil
}

func (s *stepInstance) runOps(deadline time.Time, rec *recorder) segment {
	return runLoop(1, 1, deadline, func(int) (time.Duration, int, bool) {
		d, ok := s.oneOp(rec)
		return d, 0, ok
	})
}

func (s *stepInstance) runBaseline(deadline time.Time) ([]sample, error) {
	return baselineLoop(1, deadline, func() (time.Duration, int, error) {
		d, err := s.oneBaseline()
		return d, 0, err
	})
}

func (s *stepInstance) probe() probeInput {
	return probeInput{a: s.base, vals: s.vals, rhs: s.rhs}
}

func (s *stepInstance) close() {}

// coldInstance is first contact: every op assembles a matrix from
// triplets, analyzes and factors it from nothing, and solves once.
type coldInstance struct {
	classes []coldClass
	T       int
	seed    int64
	chk     *checker
	x       []float64
	last    *basker.Factorization // kept so live_heap_mb sees one factorization
	op      int
	kop     int
}

type coldClass struct {
	a          *sparse.CSC // the assembled matrix, for probes
	rows, cols []int       // triplets in a seed-drawn order
	vals       []float64
	b          []float64
}

// coldClasses are the paper's six Fig. 5 matrices plus Xyce1, its §V-F
// sequence source. Seven classes rather than six keeps the median op inside
// one class instead of on the edge between the third and fourth.
func coldClassGens(scale float64) []matgen.Named {
	gens := matgen.Fig5Subset(scale)
	for _, m := range matgen.TableISuite(scale) {
		if m.Name == "Xyce1" {
			gens = append(gens, m)
		}
	}
	return gens
}

func newColdInstance(e env) (instance, error) {
	c := &coldInstance{T: e.T, seed: e.seed}
	rng := rand.New(rand.NewSource(e.seed))
	maxN := 0
	for ci, g := range coldClassGens(e.size.coldScale) {
		a := matgen.TransientStep(g.Gen(), 1, e.seed+int64(ci))
		cols := columnsOf(a)
		cl := coldClass{a: a, b: rhsSet(a.N, 1, e.seed+int64(ci))[0]}
		for _, p := range rng.Perm(len(a.Values)) {
			cl.rows = append(cl.rows, a.Rowidx[p])
			cl.cols = append(cl.cols, cols[p])
			cl.vals = append(cl.vals, a.Values[p])
		}
		c.classes = append(c.classes, cl)
		maxN = max(maxN, a.N)
	}
	c.chk, c.x = newChecker(maxN), make([]float64, maxN)
	for range c.classes {
		if _, _, ok := c.oneOp(nil); !ok {
			return nil, fmt.Errorf("warm-up op failed its check")
		}
		if _, _, err := c.oneBaseline(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (cl *coldClass) assemble() *basker.Matrix {
	return assemble(cl.a.N, cl.rows, cl.cols, cl.vals)
}

func (c *coldInstance) oneOp(rec *recorder) (time.Duration, int, bool) {
	i := c.op
	c.op++
	class := i % len(c.classes)
	cl := &c.classes[class]
	x := c.x[:cl.a.N]
	root := rec.begin("op", -1, i, 0)
	t0 := time.Now()
	sp := rec.begin("sparse.assemble", root, i, 0)
	m := cl.assemble()
	copy(x, cl.b)
	rec.end(sp)
	sp = rec.begin("basker.factor", root, i, 0)
	f, err := basker.New(basker.Options{Threads: c.T}).Factor(m)
	rec.end(sp)
	if err == nil {
		sp = rec.begin("trisolve.solve", root, i, 0)
		err = f.Solve(x)
		rec.end(sp)
	}
	d := time.Since(t0)
	sp = rec.begin("check", root, i, 0)
	ok := err == nil && c.chk.ok(m, x, cl.b)
	if ok && i%oracleEvery == 0 {
		k, kerr := klu.FactorDirect(m, klu.DefaultOptions())
		if ok = kerr == nil; ok {
			y := append([]float64(nil), cl.b...)
			k.Solve(y)
			ok = agree(x, y)
		}
	}
	rec.end(sp)
	rec.end(root)
	c.last = f
	return d, class, ok
}

func (c *coldInstance) oneBaseline() (time.Duration, int, error) {
	i := c.kop
	c.kop++
	class := i % len(c.classes)
	cl := &c.classes[class]
	x := c.x[:cl.a.N]
	t0 := time.Now()
	m := cl.assemble()
	copy(x, cl.b)
	k, err := klu.FactorDirect(m, klu.DefaultOptions())
	if err != nil {
		return 0, class, fmt.Errorf("klu baseline factor: %w", err)
	}
	k.Solve(x)
	return time.Since(t0), class, nil
}

func (c *coldInstance) runOps(deadline time.Time, rec *recorder) segment {
	return runLoop(1, len(c.classes), deadline, func(int) (time.Duration, int, bool) { return c.oneOp(rec) })
}

func (c *coldInstance) runBaseline(deadline time.Time) ([]sample, error) {
	return baselineLoop(len(c.classes), deadline, c.oneBaseline)
}

// probe peels the rajat21 class: the one with both small BTF blocks and an
// ND core, so every layer has something to do.
func (c *coldInstance) probe() probeInput {
	a := c.classes[1].a
	return probeInput{a: a, vals: stepValues(a, 2, c.seed), rhs: [][]float64{c.classes[1].b}}
}

func (c *coldInstance) close() {}

// batchInstance is reads beside reads: nproc goroutines share one serial
// factorization and each op solves a batch of right-hand sides.
type batchInstance struct {
	a       *sparse.CSC
	seed    int64
	f       *basker.Factorization
	k       *klu.Numeric
	rhs     [][]float64
	workers []*batchWorker
	kbs     [][]float64
}

type batchWorker struct {
	bs  [][]float64
	chk *checker
	y   []float64
	op  int
}

const batchWidth = 8

func newBatch(n int) [][]float64 {
	bs := make([][]float64, batchWidth)
	for i := range bs {
		bs[i] = make([]float64, n)
	}
	return bs
}

func newBatchInstance(e env) (instance, error) {
	a := xycePattern(e.size.xyceN, e.size.xyceBlocks)
	a.Values = matgen.TransientStep(a, 1, e.seed).Values
	bi := &batchInstance{a: a, seed: e.seed, rhs: rhsSet(a.N, 2*batchWidth, e.seed), kbs: newBatch(a.N)}
	var err error
	if bi.f, err = basker.New(basker.Options{Threads: 1}).Factor(a); err != nil {
		return nil, fmt.Errorf("first factor: %w", err)
	}
	if bi.k, err = klu.FactorDirect(a, klu.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("klu first factor: %w", err)
	}
	for w := 0; w < e.nproc; w++ {
		bi.workers = append(bi.workers, &batchWorker{bs: newBatch(a.N), chk: newChecker(a.N), y: make([]float64, a.N)})
	}
	// Fill the solver's workspace pool with one workspace per worker.
	if seg := bi.runOps(time.Now(), nil); seg.failed > 0 {
		return nil, fmt.Errorf("warm-up op failed its check")
	}
	bi.oneBaseline(0)
	return bi, nil
}

// fill copies the op's right-hand sides into bs, rotating through the set.
func (bi *batchInstance) fill(bs [][]float64, i int) {
	for c := range bs {
		copy(bs[c], bi.rhs[(i+c)%len(bi.rhs)])
	}
}

func (bi *batchInstance) oneOp(w int, rec *recorder) (time.Duration, bool) {
	wk := bi.workers[w]
	i := wk.op
	wk.op++
	id := i*len(bi.workers) + w
	root := rec.begin("op", -1, id, w)
	t0 := time.Now()
	sp := rec.begin("stamp", root, id, w)
	bi.fill(wk.bs, i)
	rec.end(sp)
	sp = rec.begin("trisolve.solve", root, id, w)
	err := bi.f.SolveMany(wk.bs)
	rec.end(sp)
	d := time.Since(t0)
	sp = rec.begin("check", root, id, w)
	ok := err == nil
	for c := 0; ok && c < len(wk.bs); c++ {
		ok = wk.chk.ok(bi.a, wk.bs[c], bi.rhs[(i+c)%len(bi.rhs)])
	}
	if ok && i%oracleEvery == 0 {
		copy(wk.y, bi.rhs[i%len(bi.rhs)])
		bi.k.Solve(wk.y)
		ok = agree(wk.bs[0], wk.y)
	}
	rec.end(sp)
	rec.end(root)
	return d, ok
}

// oneBaseline is what a KLU user does with a batch: one Solve per vector.
func (bi *batchInstance) oneBaseline(i int) time.Duration {
	t0 := time.Now()
	bi.fill(bi.kbs, i)
	for _, b := range bi.kbs {
		bi.k.Solve(b)
	}
	return time.Since(t0)
}

func (bi *batchInstance) runOps(deadline time.Time, rec *recorder) segment {
	return runLoop(len(bi.workers), 1, deadline, func(w int) (time.Duration, int, bool) {
		d, ok := bi.oneOp(w, rec)
		return d, 0, ok
	})
}

func (bi *batchInstance) runBaseline(deadline time.Time) ([]sample, error) {
	i := 0
	return baselineLoop(1, deadline, func() (time.Duration, int, error) {
		i++
		return bi.oneBaseline(i), 0, nil
	})
}

func (bi *batchInstance) probe() probeInput {
	return probeInput{a: bi.a, vals: stepValues(bi.a, 2, bi.seed), rhs: bi.rhs}
}

func (bi *batchInstance) close() {}
