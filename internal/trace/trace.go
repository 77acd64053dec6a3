// Package trace is the scheduler observability layer: a low-overhead
// event recorder the numeric sweeps thread their per-kernel timings
// through, plus per-sweep summaries (sync fraction, per-worker
// utilization, straggler blocks) and a Chrome trace-event exporter.
//
// The design constraints come from the zero-allocation steady-state
// contracts of the refactorization pipeline:
//
//   - a nil *Recorder is a valid, fully disabled recorder: every method
//     is nil-safe and free of clock reads, so instrumented hot paths pay
//     one pointer test when tracing is off;
//   - recording an event never allocates: events land in a fixed
//     power-of-two ring buffer through a single atomic cursor, so any
//     number of workers can record concurrently without locks (each
//     Add reserves a distinct slot);
//   - only EndSweep — called once per factor/refactor sweep by the
//     driver, never by workers — allocates, to build the Summary.
//
// Wall-clock nanoseconds are relative to the recorder's creation time,
// which keeps them small, monotonic (time.Since uses the monotonic
// clock) and directly usable as Chrome trace timestamps.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies which pipeline stage an event belongs to.
type Phase uint8

const (
	PhaseAnalyze Phase = iota
	PhaseFactor
	PhaseRefactor
	PhasePartial
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseAnalyze:
		return "analyze"
	case PhaseFactor:
		return "factor"
	case PhaseRefactor:
		return "refactor"
	case PhasePartial:
		return "partial"
	}
	return "unknown"
}

// Kind identifies the kernel kind an event measured.
type Kind uint8

const (
	// KindSmallBlock is one fine-BTF diagonal block handled by the GP
	// kernel (factor or in-place refresh).
	KindSmallBlock Kind = iota
	// KindNDKernel is one contiguous run of fine-ND kernels executed by a
	// 2D-schedule worker between synchronization points.
	KindNDKernel
	// KindGather is the driver's value gather / permutation step (in the
	// analyze phase: forming the BTF-permuted matrix the blocks are read
	// from).
	KindGather
	// KindAnalyzeBTF is the analyze front end: matching + BTF ordering.
	KindAnalyzeBTF
	// KindAnalyzeAMD is one small block's local AMD ordering + estimate.
	KindAnalyzeAMD
	// The analysis of one big block, stage by stage: KindAnalyzeNDMatch is
	// the block's extraction and local bottleneck matching;
	// KindAnalyzeNDDissect the graph of the matched block and its nested
	// dissection; KindAnalyzeNDLocalAMD one tree block's local AMD (plus,
	// for a leaf, its elimination tree and column counts);
	// KindAnalyzeNDEstimate the Algorithm 3 estimates, supernode detection
	// and dense tags over the final 2D layout.
	KindAnalyzeNDMatch
	KindAnalyzeNDDissect
	KindAnalyzeNDLocalAMD
	KindAnalyzeNDEstimate
	// KindAnalyzePlan is the gather-plan construction step.
	KindAnalyzePlan
	// KindDenseRefresh is a fine-ND span whose kernels ran through the dense
	// panel layer (panel LU, TRSM or accumulation — pivoting or refresh).
	KindDenseRefresh
	// KindSnodeKernel is a fine-ND leaf diagonal factored or refreshed
	// through elimination-tree supernode panels.
	KindSnodeKernel
)

func (k Kind) String() string {
	switch k {
	case KindSmallBlock:
		return "small-block"
	case KindNDKernel:
		return "nd-kernel"
	case KindGather:
		return "gather"
	case KindAnalyzeBTF:
		return "analyze-btf"
	case KindAnalyzeAMD:
		return "analyze-amd"
	case KindAnalyzeNDMatch:
		return "analyze-nd-match"
	case KindAnalyzeNDDissect:
		return "analyze-nd-dissect"
	case KindAnalyzeNDLocalAMD:
		return "analyze-nd-local-amd"
	case KindAnalyzeNDEstimate:
		return "analyze-nd-estimate"
	case KindAnalyzePlan:
		return "analyze-plan"
	case KindDenseRefresh:
		return "dense-refresh"
	case KindSnodeKernel:
		return "snode-kernel"
	}
	return "unknown"
}

// Event is one recorded kernel execution. Start and End are nanoseconds
// since the recorder's base time; Wait is the portion of the worker's
// time since its previous event (or sweep start) spent blocked on the
// point-to-point fabric, accounted separately from compute so sync
// overhead is measurable (the paper's 2.3 % claim).
type Event struct {
	Start  int64
	End    int64
	Wait   int64
	Worker int32
	Block  int32
	Kind   Kind
	Phase  Phase
}

// DriverWorker labels events recorded by the sweep driver goroutine
// rather than a scheduled worker.
const DriverWorker int32 = -1

const (
	ndLaneShift = 10
	ndLaneMask  = 1<<ndLaneShift - 1
)

// NDWorker returns the trace lane of fine-ND worker t cooperating on
// coarse block blk. Each (block, worker) pair gets its own lane so the
// per-lane event streams never overlap even when several big blocks
// factor concurrently.
func NDWorker(blk, t int) int32 {
	return int32((blk+1)<<ndLaneShift + t)
}

// LaneName names a worker lane for human-facing output (thread names in
// the Chrome export).
func LaneName(worker int32) string {
	switch {
	case worker == DriverWorker:
		return "driver"
	case worker >= 1<<ndLaneShift:
		blk := int(worker>>ndLaneShift) - 1
		return "nd" + itoa(blk) + "-w" + itoa(int(worker&ndLaneMask))
	}
	return "worker-" + itoa(int(worker))
}

// itoa is strconv.Itoa for small non-negative ints, kept local so the
// hot-path-free package surface stays dependency-light.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Recorder is the shared event sink. A nil *Recorder is valid and
// disabled; a non-nil Recorder may be shared by any number of workers
// and sweeps (records are lock-free). Summaries are produced by the
// sweep driver via BeginSweep/End.
type Recorder struct {
	base   time.Time
	buf    []Event
	mask   uint64
	cursor atomic.Uint64

	mu        sync.Mutex
	summaries []Summary
	last      [numPhases]Summary
	has       [numPhases]bool
	cum       [numPhases]cumPhase
}

type cumPhase struct {
	sweeps           int64
	wall, work, wait float64
}

// DefaultCapacity is the event-ring capacity NewRecorder uses when the
// caller passes a non-positive capacity.
const DefaultCapacity = 1 << 16

// maxSummaries caps the retained per-sweep summaries so a long transient
// loop with tracing left on cannot grow without bound; the cumulative
// per-phase totals keep counting past the cap.
const maxSummaries = 1024

// NewRecorder returns an enabled Recorder whose ring holds at least
// capacity events (rounded up to a power of two; capacity <= 0 selects
// DefaultCapacity). When the ring wraps, the oldest events are
// overwritten and the affected sweep summaries report Dropped > 0.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{
		base: time.Now(),
		buf:  make([]Event, n),
		mask: uint64(n - 1),
	}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns nanoseconds since the recorder's base time (0 when
// disabled — no clock read happens on a nil recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.base).Nanoseconds()
}

// Record appends ev to the ring. Safe for concurrent use from any
// number of workers; never allocates or blocks. A no-op when disabled.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	idx := r.cursor.Add(1) - 1
	r.buf[idx&r.mask] = ev
}

// Events returns the recorded events, oldest first. Events recorded
// concurrently with the call may be torn; call between sweeps.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	cur := r.cursor.Load()
	n := uint64(len(r.buf))
	lo := uint64(0)
	if cur > n {
		lo = cur - n
	}
	out := make([]Event, 0, cur-lo)
	for i := lo; i < cur; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// Sweep is an open per-sweep measurement started by BeginSweep.
type Sweep struct {
	r      *Recorder
	phase  Phase
	start  int64
	cursor uint64
}

// BeginSweep opens a sweep-level measurement for the given phase. The
// returned Sweep's End produces (and retains) the Summary over every
// event of that phase recorded in between. Nil-safe.
func (r *Recorder) BeginSweep(phase Phase) Sweep {
	if r == nil {
		return Sweep{}
	}
	return Sweep{r: r, phase: phase, start: r.Now(), cursor: r.cursor.Load()}
}

// End closes the sweep and stores its Summary on the recorder. This is
// the only allocating call of the recording path and must be made by
// the sweep driver, never by workers.
func (s Sweep) End() {
	r := s.r
	if r == nil {
		return
	}
	end := r.Now()
	cur := r.cursor.Load()
	n := uint64(len(r.buf))
	lo := s.cursor
	dropped := 0
	if cur-lo > n {
		dropped = int(cur - lo - n)
		lo = cur - n
	}
	sum := Summary{
		Phase:       s.phase,
		WallSeconds: float64(end-s.start) / 1e9,
		Dropped:     dropped,
	}
	type acc struct{ busy, wait int64 }
	workers := map[int32]*acc{}
	blocks := map[blockKey]int64{}
	for i := lo; i < cur; i++ {
		ev := r.buf[i&r.mask]
		if ev.Phase != s.phase {
			continue
		}
		sum.Events++
		busy := ev.End - ev.Start
		if busy < 0 {
			busy = 0
		}
		sum.WorkSeconds += float64(busy) / 1e9
		sum.WaitSeconds += float64(ev.Wait) / 1e9
		a := workers[ev.Worker]
		if a == nil {
			a = &acc{}
			workers[ev.Worker] = a
		}
		a.busy += busy
		a.wait += ev.Wait
		blocks[blockKey{ev.Block, ev.Kind}] += busy
	}
	if tot := sum.WorkSeconds + sum.WaitSeconds; tot > 0 {
		sum.SyncFraction = sum.WaitSeconds / tot
	}
	if sum.WallSeconds > 0 {
		sum.Parallelism = sum.WorkSeconds / sum.WallSeconds
	}
	for w, a := range workers {
		wu := WorkerUtil{
			Worker:      w,
			BusySeconds: float64(a.busy) / 1e9,
			WaitSeconds: float64(a.wait) / 1e9,
		}
		if sum.WallSeconds > 0 {
			wu.Utilization = wu.BusySeconds / sum.WallSeconds
		}
		sum.Workers = append(sum.Workers, wu)
	}
	sortWorkers(sum.Workers)
	sum.Stragglers = topBlocks(blocks, topStragglers)
	r.mu.Lock()
	if len(r.summaries) < maxSummaries {
		r.summaries = append(r.summaries, sum)
	}
	r.last[s.phase] = sum
	r.has[s.phase] = true
	c := &r.cum[s.phase]
	c.sweeps++
	c.wall += sum.WallSeconds
	c.work += sum.WorkSeconds
	c.wait += sum.WaitSeconds
	r.mu.Unlock()
}

type blockKey struct {
	block int32
	kind  Kind
}

// topStragglers is how many per-(block, kind) cost leaders a Summary
// retains.
const topStragglers = 5

func topBlocks(blocks map[blockKey]int64, k int) []BlockCost {
	out := make([]BlockCost, 0, len(blocks))
	for key, ns := range blocks {
		out = append(out, BlockCost{Block: key.block, Kind: key.kind, Seconds: float64(ns) / 1e9})
	}
	// Selection sort of the top k: the map is small (straggler reporting,
	// not a hot path) and this avoids importing sort for a partial order.
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Seconds > out[best].Seconds {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sortWorkers(ws []WorkerUtil) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Worker < ws[j-1].Worker; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// WorkerUtil is one worker lane's share of a sweep.
type WorkerUtil struct {
	Worker      int32
	BusySeconds float64
	WaitSeconds float64
	// Utilization is BusySeconds over the sweep's wall-clock span.
	Utilization float64
}

// BlockCost is one coarse block's summed kernel seconds in a sweep.
type BlockCost struct {
	Block   int32
	Kind    Kind
	Seconds float64
}

// Summary is the per-sweep scheduler profile: how much of the sweep was
// compute vs synchronization, how evenly the work spread over the
// workers, and which blocks dominated the critical path.
type Summary struct {
	Phase Phase
	// WallSeconds is the sweep's wall-clock span (driver side).
	WallSeconds float64
	// WorkSeconds is the total compute across all workers.
	WorkSeconds float64
	// WaitSeconds is the total blocked point-to-point wait time across all
	// workers.
	WaitSeconds float64
	// SyncFraction is WaitSeconds / (WorkSeconds + WaitSeconds) — the
	// paper's sync-overhead metric (~2.3 % for point-to-point).
	SyncFraction float64
	// Parallelism is WorkSeconds / WallSeconds: the effective number of
	// busy workers (1.0 = serial, p = perfect scaling on p workers).
	Parallelism float64
	// Workers lists per-lane busy/wait/utilization, lane ascending.
	Workers []WorkerUtil
	// Stragglers lists the top per-(block, kind) kernel costs.
	Stragglers []BlockCost
	// Events is how many events of the sweep's phase were summarized;
	// Dropped counts ring overwrites during the sweep (enlarge the
	// recorder capacity if nonzero).
	Events  int
	Dropped int
}

// MeanUtilization is the mean per-worker utilization (0 when the sweep
// recorded no worker events).
func (s Summary) MeanUtilization() float64 {
	if len(s.Workers) == 0 {
		return 0
	}
	t := 0.0
	for _, w := range s.Workers {
		t += w.Utilization
	}
	return t / float64(len(s.Workers))
}

// Imbalance is the busiest worker's share over the mean (1.0 = perfectly
// balanced; 0 when no worker events were recorded). This is the paper's
// load-imbalance lens on the flop-partitioned schedule.
func (s Summary) Imbalance() float64 {
	if len(s.Workers) == 0 {
		return 0
	}
	max, tot := 0.0, 0.0
	for _, w := range s.Workers {
		tot += w.BusySeconds
		if w.BusySeconds > max {
			max = w.BusySeconds
		}
	}
	if tot == 0 {
		return 0
	}
	return max / (tot / float64(len(s.Workers)))
}

// String renders the summary as a short human-readable block, the form
// baskerbench -trace and baskersolve print.
func (s Summary) String() string {
	b := make([]byte, 0, 256)
	b = append(b, s.Phase.String()...)
	b = append(b, " sweep: wall "...)
	b = appendSeconds(b, s.WallSeconds)
	b = append(b, ", work "...)
	b = appendSeconds(b, s.WorkSeconds)
	b = append(b, ", sync "...)
	b = appendPct(b, s.SyncFraction)
	b = append(b, ", parallelism "...)
	b = appendFixed(b, s.Parallelism)
	b = append(b, "x, utilization "...)
	b = appendPct(b, s.MeanUtilization())
	b = append(b, ", imbalance "...)
	b = appendFixed(b, s.Imbalance())
	b = append(b, "x ("...)
	b = append(b, itoa(s.Events)...)
	b = append(b, " events"...)
	if s.Dropped > 0 {
		b = append(b, ", "...)
		b = append(b, itoa(s.Dropped)...)
		b = append(b, " dropped"...)
	}
	b = append(b, ')')
	return string(b)
}

func appendSeconds(b []byte, s float64) []byte {
	us := int64(s * 1e6)
	b = append(b, itoa(int(us))...)
	return append(b, "us"...)
}

func appendPct(b []byte, f float64) []byte {
	tenths := int64(f*1000 + 0.5)
	b = append(b, itoa(int(tenths/10))...)
	b = append(b, '.')
	b = append(b, byte('0'+tenths%10))
	return append(b, '%')
}

func appendFixed(b []byte, f float64) []byte {
	hund := int64(f*100 + 0.5)
	b = append(b, itoa(int(hund/100))...)
	b = append(b, '.')
	b = append(b, byte('0'+(hund/10)%10))
	return append(b, byte('0'+hund%10))
}

// LastSummary returns the most recent summary of the given phase.
func (r *Recorder) LastSummary(phase Phase) (Summary, bool) {
	if r == nil || phase >= numPhases {
		return Summary{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last[phase], r.has[phase]
}

// Summaries returns every retained per-sweep summary, oldest first.
func (r *Recorder) Summaries() []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Summary(nil), r.summaries...)
}

// CumulativeSeconds returns the cumulative per-phase totals as a flat
// string→float64 map ("factor_sweeps", "factor_wall_seconds",
// "factor_work_seconds", "factor_wait_seconds", …) — the shape the
// expvar bridge publishes for Prometheus-style scraping.
func (r *Recorder) CumulativeSeconds() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := Phase(0); p < numPhases; p++ {
		c := r.cum[p]
		if c.sweeps == 0 {
			continue
		}
		name := p.String()
		out[name+"_sweeps"] = float64(c.sweeps)
		out[name+"_wall_seconds"] = c.wall
		out[name+"_work_seconds"] = c.work
		out[name+"_wait_seconds"] = c.wait
	}
	return out
}
