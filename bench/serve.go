package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	basker "repro"
	"repro/internal/klu"
	"repro/internal/sparse"
	"repro/serve"
)

// The request classes of the serving mix, in order of frequency.
const (
	classRefresh  = iota // /v1/solve: id + full values + b
	classBatch           // /v1/solve: id + eight right-hand sides, registered values
	classTriplets        // /v1/solve: inline triplets of a known pattern + b
	classFresh           // /v1/factor: id + values, mode "fresh"
	numClasses
)

var (
	classNames = [numClasses]string{"refresh", "cached_batch", "triplets", "fresh"}
	// classPerDeck is how many requests of each class one pattern contributes
	// to a client's deck: 60 % / 25 % / 10 % / 5 % of the mix.
	classPerDeck = [numClasses]int{12, 5, 2, 1}
)

const serveValueSets = 4

// servePattern is one registered matrix family with the inputs its
// requests draw from.
type servePattern struct {
	id         string
	a          *sparse.CSC // registered template (pattern + values)
	rows, cols []int       // the pattern in coordinate form
	vals       [][]float64
	rhs        [][]float64

	// The baseline's state: what a simulator linking serial KLU directly
	// keeps for this pattern.
	k  *klu.Numeric
	ka *sparse.CSC
	kx []float64
}

// serveRig is a serve.Server on a loopback listener over a sharded pool,
// with keep-alive clients and warmed patterns.
type serveRig struct {
	pool    *basker.ShardedPool
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	pats    []*servePattern
	workers []*serveWorker
	kop     int // baseline steps done
}

// serveWorker is one closed-loop client. It deals its requests from a
// deck holding every (class, pattern) pair in the mix's exact proportions,
// shuffled once by the seed, so any stretch of a deck's length has the same
// composition and timings of two stretches can be compared.
type serveWorker struct {
	rng  *rand.Rand
	chk  *checker
	deck []deckCard
	op   int
}

type deckCard struct{ class, pat int }

// sampleClass labels a request's timing with its class and pattern.
func sampleClass(req serveReq, pats []*servePattern) int {
	for pi, p := range pats {
		if p == req.pat {
			return req.class + numClasses*pi
		}
	}
	return req.class
}

func requestClass(sampleClass int) int { return sampleClass % numClasses }

func newServeWorker(seed int64, patterns, maxN int) *serveWorker {
	wk := &serveWorker{rng: rand.New(rand.NewSource(seed)), chk: newChecker(maxN)}
	for p := 0; p < patterns; p++ {
		for class, count := range classPerDeck {
			for k := 0; k < count; k++ {
				wk.deck = append(wk.deck, deckCard{class, p})
			}
		}
	}
	wk.rng.Shuffle(len(wk.deck), func(i, j int) { wk.deck[i], wk.deck[j] = wk.deck[j], wk.deck[i] })
	return wk
}

// serveReq is one generated request with what is needed to check its
// answer.
type serveReq struct {
	class int
	pat   *servePattern
	vals  []float64 // the values the request carries; nil selects the registered ones
	b     []float64
	bs    [][]float64
}

func newServeRig(seed int64, clients int, mats []*sparse.CSC) (*serveRig, error) {
	r := &serveRig{served: make(chan error, 1)}
	r.pool = basker.NewShardedPool(0, basker.PoolOptions{Options: basker.Options{Threads: 1}})
	r.srv = serve.NewServer(r.pool, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.url = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}}

	maxN := 0
	for pi, a := range mats {
		p := &servePattern{a: a, rows: a.Rowidx, cols: columnsOf(a),
			vals: stepValues(a, serveValueSets, seed+int64(pi)),
			rhs:  rhsSet(a.N, 2*batchWidth, seed+int64(pi)),
			ka:   a.Clone(), kx: make([]float64, a.N)}
		var reg serve.RegisterResponse
		req := serve.RegisterRequest{Matrix: &serve.MatrixJSON{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: a.Values}, Warm: true}
		if err := r.post("/v1/matrices", req, &reg); err != nil {
			r.close()
			return nil, fmt.Errorf("register pattern %d: %w", pi, err)
		}
		p.id = reg.ID
		if p.k, err = klu.FactorDirect(a, klu.DefaultOptions()); err != nil {
			r.close()
			return nil, fmt.Errorf("klu baseline for pattern %d: %w", pi, err)
		}
		r.pats = append(r.pats, p)
		maxN = max(maxN, a.N)
	}
	for w := 0; w < clients; w++ {
		r.workers = append(r.workers, newServeWorker(seed*1009+int64(w), len(r.pats), maxN))
	}
	// Warm-up: every client sends every class to every pattern once, which
	// opens the keep-alive connections, builds the refresh entry maps and
	// leaves one idle factorization per client and pattern in the pool.
	warm := runLoop(clients, len(r.pats)*numClasses, time.Now(), func(w int) (time.Duration, int, bool) {
		wk := r.workers[w]
		req := r.build(wk, wk.op%numClasses, r.pats[wk.op/numClasses%len(r.pats)])
		d, ok := r.do(w, req, nil)
		return d, sampleClass(req, r.pats), ok
	})
	if warm.failed > 0 {
		r.close()
		return nil, fmt.Errorf("%d warm-up requests failed", warm.failed)
	}
	return r, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	<-r.served
}

// post sends one JSON request and decodes the 200 reply into out.
func (r *serveRig) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	raw, err := r.roundTrip(path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// roundTrip posts an encoded body and returns the raw 200 reply.
func (r *serveRig) roundTrip(path string, body []byte) ([]byte, error) {
	resp, err := r.client.Post(r.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// next deals worker wk's i-th request.
func (r *serveRig) next(wk *serveWorker, i int) serveReq {
	card := wk.deck[i%len(wk.deck)]
	return r.build(wk, card.class, r.pats[card.pat])
}

func (r *serveRig) build(wk *serveWorker, class int, p *servePattern) serveReq {
	req := serveReq{class: class, pat: p}
	if class == classBatch {
		start := wk.rng.Intn(len(p.rhs))
		for c := 0; c < batchWidth; c++ {
			req.bs = append(req.bs, p.rhs[(start+c)%len(p.rhs)])
		}
		return req
	}
	req.vals = p.vals[wk.rng.Intn(len(p.vals))]
	req.b = p.rhs[wk.rng.Intn(len(p.rhs))]
	return req
}

// wire returns the endpoint and request body of req.
func (req serveReq) wire() (string, any) {
	p := req.pat
	switch req.class {
	case classRefresh:
		return "/v1/solve", serve.SolveRequest{ID: p.id, Values: req.vals, B: req.b}
	case classBatch:
		return "/v1/solve", serve.SolveRequest{ID: p.id, Bs: req.bs}
	case classTriplets:
		return "/v1/solve", serve.SolveRequest{B: req.b,
			Triplets: &serve.TripletsJSON{M: p.a.M, N: p.a.N, Rows: p.rows, Cols: p.cols, Values: req.vals}}
	default:
		return "/v1/factor", serve.FactorRequest{ID: p.id, Values: req.vals, Mode: "fresh"}
	}
}

// do sends req as client w and checks the answer. The returned duration
// covers what a client pays: encode, round trip, decode.
func (r *serveRig) do(w int, req serveReq, rec *recorder) (time.Duration, bool) {
	wk := r.workers[w]
	id := wk.op*len(r.workers) + w
	wk.op++
	path, in := req.wire()
	var (
		solved   serve.SolveResponse
		factored serve.FactorResponse
		elapsed  float64
	)
	root := rec.begin("op", -1, id, w)
	t0 := time.Now()
	sp := rec.begin("client.encode", root, id, w)
	body, err := json.Marshal(in)
	rec.end(sp)
	var raw []byte
	var sent, received time.Time
	if err == nil {
		sp = rec.begin("http.roundtrip", root, id, w)
		sent = time.Now()
		raw, err = r.roundTrip(path, body)
		received = time.Now()
		rec.end(sp)
	}
	if err == nil {
		dec := rec.begin("client.decode", root, id, w)
		if req.class == classFresh {
			err = json.Unmarshal(raw, &factored)
			elapsed = factored.ElapsedMS
		} else {
			err = json.Unmarshal(raw, &solved)
			elapsed = solved.ElapsedMS
		}
		rec.end(dec)
		// The server's own account of the request, centred in the round trip.
		inner := time.Duration(elapsed * float64(time.Millisecond))
		if slack := received.Sub(sent) - inner; slack >= 0 {
			rec.add("serve.inner", sent.Add(slack/2), received.Add(-slack/2), sp, id, w)
		}
	}
	d := time.Since(t0)
	chk := rec.begin("check", root, id, w)
	ok := err == nil
	if ok {
		a := p2a(req)
		switch req.class {
		case classBatch:
			ok = len(solved.Xs) == len(req.bs)
			for c := 0; ok && c < len(req.bs); c++ {
				ok = len(solved.Xs[c]) == a.N && wk.chk.ok(a, solved.Xs[c], req.bs[c])
			}
		case classFresh:
			ok = factored.N == a.N && factored.NnzLU > 0
		default:
			ok = len(solved.X) == a.N && wk.chk.ok(a, solved.X, req.b)
		}
	}
	rec.end(chk)
	rec.end(root)
	return d, ok
}

// p2a is the matrix req asks the server to solve with.
func p2a(req serveReq) *sparse.CSC {
	if req.vals == nil {
		return req.pat.a
	}
	return withValues(req.pat.a, req.vals)
}

// baselineStep is the refresh request's numeric work done by in-process
// serial KLU — restamp, Refactor, Solve — on the patterns in turn: what a
// simulator that links the solver pays for the step it would otherwise send
// to the service. Timed against the refresh requests alone, it makes
// speedup_vs_klu on this workload the price of the service layer.
func (r *serveRig) baselineStep() (time.Duration, int, error) {
	i := r.kop
	r.kop++
	pi := i % len(r.pats)
	p := r.pats[pi]
	step := i / len(r.pats)
	t0 := time.Now()
	copy(p.ka.Values, p.vals[step%len(p.vals)])
	copy(p.kx, p.rhs[step%len(p.rhs)])
	if err := p.k.Refactor(p.ka); err != nil {
		return 0, 0, fmt.Errorf("klu baseline refresh: %w", err)
	}
	p.k.Solve(p.kx)
	return time.Since(t0), classRefresh + numClasses*pi, nil
}

// run drives every client until the deadline, which each client tests
// every round requests.
func (r *serveRig) run(deadline time.Time, rec *recorder, round int) segment {
	return runLoop(len(r.workers), round, deadline, func(w int) (time.Duration, int, bool) {
		req := r.next(r.workers[w], r.workers[w].op)
		d, ok := r.do(w, req, rec)
		return d, sampleClass(req, r.pats), ok
	})
}

// runOps deals whole decks, so every segment has exactly the mix's
// composition and its percentiles fall in the same place of the same
// clusters of timings.
func (r *serveRig) runOps(deadline time.Time, rec *recorder) segment {
	return r.run(deadline, rec, len(r.workers[0].deck))
}

func (r *serveRig) runBaseline(deadline time.Time) ([]sample, error) {
	return baselineLoop(len(r.pats), deadline, r.baselineStep)
}

// stats fetches the server's own counters.
func (r *serveRig) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := r.client.Get(r.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveInstance is the serve_mixed workload: nproc closed-loop clients on
// four warmed patterns.
type serveInstance struct{ *serveRig }

func newServeInstance(e env) (*serveInstance, error) {
	var mats []*sparse.CSC
	for _, n := range e.size.serveN {
		mats = append(mats, xycePattern(n, n/30))
	}
	mats = append(mats, hcircuitPattern(e.size.serveGridN))
	rig, err := newServeRig(e.seed, e.nproc, mats)
	if err != nil {
		return nil, err
	}
	return &serveInstance{rig}, nil
}

// probe peels the largest served pattern through the workload's own server.
func (s *serveInstance) probe() probeInput {
	p := s.pats[len(s.pats)-2]
	return probeInput{a: p.a, vals: p.vals, rhs: p.rhs, rig: s.serveRig}
}
