// Command baskerload drives the solver-as-a-service front end with
// thousands of concurrent clients over mixed matgen patterns and mixed
// solve/refresh/factor traffic, and reports throughput plus latency
// percentiles as a BENCH_serving.json trajectory.
//
// Two modes:
//
//	baskerload                 in-process benchmark: the same workload runs
//	                           against a sharded pool and a single-shard
//	                           pool, timed by the wall clock on the host's
//	                           own cores, with measured lock wait/hold
//	                           seconds.
//	baskerload -url=http://... burst against a live baskerserve over real
//	                           HTTP (the CI smoke path); exits non-zero on
//	                           any non-2xx response.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	basker "repro"
	"repro/internal/matgen"
	"repro/serve"
)

var (
	urlFlag  = flag.String("url", "", "drive a live server at this base URL instead of the in-process benchmark")
	clients  = flag.Int("clients", 1000, "concurrent closed-loop clients")
	perCli   = flag.Int("requests", 10, "requests per client")
	patterns = flag.Int("patterns", 8, "distinct matrix patterns")
	nBase    = flag.Int("n", 60, "base matrix dimension (pattern i gets n + 8*i)")
	shards   = flag.Int("shards", 8, "shard count for the sharded configuration")
	threads  = flag.Int("threads", 1, "factorization threads per request")
	seed     = flag.Int64("seed", 1, "workload RNG seed")
	jsonOut  = flag.String("json", "", "write the benchmark report to this path")
	maxByt   = flag.Int64("maxbytes", 0,
		"pool memory bound in bytes (0 = unbounded); a tight bound makes every release run the eviction scan — the memory-pressured serving regime")
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "baskerload: "+format+"\n", args...)
	os.Exit(1)
}

// workItem is one pre-generated request: its endpoint and JSON body.
type workItem struct {
	path string
	body []byte
}

// mkPatterns builds the distinct circuit patterns of the workload.
func mkPatterns(p, n int) []*basker.Matrix {
	mats := make([]*basker.Matrix, p)
	for i := range mats {
		mats[i] = matgen.Circuit(matgen.CircuitParams{
			N: n + 8*i, BTFPct: 50, Blocks: 6, Core: matgen.CoreLadder,
			ExtraDensity: 0.4, Seed: int64(300 + i),
		})
	}
	return mats
}

// mkWorkload pre-generates the full mixed request stream: 75% cache-hit
// solves on registered patterns (the amortized serving steady state), 15%
// values-refresh solves (refactor traffic), 10% factor warms. Bodies are
// pre-marshaled so client-side JSON cost stays out of the measured window.
func mkWorkload(mats []*basker.Matrix, ids []string, total int, rng *rand.Rand) []workItem {
	items := make([]workItem, total)
	for i := range items {
		p := rng.Intn(len(mats))
		a := mats[p]
		b := make([]float64, a.N)
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		var (
			path string
			body any
		)
		switch r := rng.Float64(); {
		case r < 0.75:
			path = "/v1/solve"
			body = serve.SolveRequest{ID: ids[p], B: b}
		case r < 0.90:
			// Incremental refresh traffic: a few stamps drift (a circuit
			// step), so the pool's change-set-aware partial sweep carries it.
			vals := append([]float64(nil), a.Values...)
			for k := 0; k < 1+len(vals)/32; k++ {
				vals[rng.Intn(len(vals))] *= 1 + 0.02*rng.NormFloat64()
			}
			path = "/v1/solve"
			body = serve.SolveRequest{ID: ids[p], Values: vals, B: b}
		default:
			path = "/v1/factor"
			body = serve.FactorRequest{ID: ids[p]}
		}
		blob, err := json.Marshal(body)
		if err != nil {
			fatalf("marshal workload: %v", err)
		}
		items[i] = workItem{path: path, body: blob}
	}
	return items
}

// register installs every pattern on the server (warm) and returns their
// ids, via the wire like any client.
func register(do func(path string, body []byte) (int, []byte), mats []*basker.Matrix) []string {
	ids := make([]string, len(mats))
	for i, a := range mats {
		blob, _ := json.Marshal(serve.RegisterRequest{
			Matrix: &serve.MatrixJSON{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: a.Values},
			Warm:   true,
		})
		status, raw := do("/v1/matrices", blob)
		if status != http.StatusOK {
			fatalf("register pattern %d: status %d, body %s", i, status, raw)
		}
		var reg serve.RegisterResponse
		if err := json.Unmarshal(raw, &reg); err != nil {
			fatalf("register pattern %d: %v", i, err)
		}
		ids[i] = reg.ID
	}
	return ids
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// configResult is one configuration's measured block of the report.
type configResult struct {
	Name          string  `json:"name"`
	Shards        int     `json:"shards"`
	WallSeconds   float64 `json:"wall_s"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`
	Errors        int     `json:"errors"`

	Hits            uint64  `json:"pool_hits"`
	Misses          uint64  `json:"pool_misses"`
	LockWaitSeconds float64 `json:"lock_wait_s"`
	LockHoldSeconds float64 `json:"lock_hold_s"`
}

type report struct {
	Generated   string             `json:"generated"`
	HostCPUs    int                `json:"host_cpus"`
	TimingMode  string             `json:"timing_mode"`
	Clients     int                `json:"clients"`
	PerClient   int                `json:"requests_per_client"`
	Patterns    int                `json:"patterns"`
	NBase       int                `json:"n_base"`
	Threads     int                `json:"threads"`
	Mix         map[string]float64 `json:"mix"`
	Configs     []configResult     `json:"configs"`
	SpeedupReal float64            `json:"sharded_vs_single_real_wall"`
}

// runConfig measures one pool configuration against the workload: closed-loop
// concurrent clients give the wall clock and the latency percentiles.
func runConfig(name string, shardCount int, mats []*basker.Matrix, workload []workItem) configResult {
	// MaxCachedPatterns is unlimited in both configurations so the
	// comparison isolates what sharding changes (lock contention and
	// per-shard eviction-scan cost), not aggregate symbolic-cache capacity.
	pool := basker.NewShardedPool(shardCount, basker.PoolOptions{
		Options:           basker.Options{Threads: *threads, BigBlockMin: 64},
		MaxBytes:          *maxByt,
		MaxCachedPatterns: -1,
		MeterLock:         true,
	})
	srv := serve.NewServer(pool, serve.Options{})
	do := func(path string, body []byte) (int, []byte) {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	ids := register(do, mats)
	_ = ids // ids are baked into the workload (stable content-derived ids)

	// Concurrent phase: closed-loop clients, each walking its slice of the
	// stream back-to-back.
	nClients := *clients
	if nClients > len(workload) {
		nClients = len(workload)
	}
	lat := make([]float64, len(workload))
	var errs int64
	var errMu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(workload); i += nClients {
				it := workload[i]
				req := httptest.NewRequest("POST", it.path, bytes.NewReader(it.body))
				rec := httptest.NewRecorder()
				s0 := time.Now()
				srv.ServeHTTP(rec, req)
				lat[i] = time.Since(s0).Seconds()
				if rec.Code != http.StatusOK {
					errMu.Lock()
					errs++
					if errs == 1 {
						fmt.Fprintf(os.Stderr, "baskerload: %s -> %d: %s\n", it.path, rec.Code, rec.Body.Bytes())
					}
					errMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	stats := pool.Stats()

	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)

	return configResult{
		Name:            name,
		Shards:          pool.NumShards(),
		WallSeconds:     wall,
		ThroughputRPS:   float64(len(workload)) / wall,
		P50Millis:       percentile(sorted, 0.50) * 1e3,
		P95Millis:       percentile(sorted, 0.95) * 1e3,
		P99Millis:       percentile(sorted, 0.99) * 1e3,
		Errors:          int(errs),
		Hits:            stats.Hits,
		Misses:          stats.Misses,
		LockWaitSeconds: stats.LockWaitSeconds,
		LockHoldSeconds: stats.LockHoldSeconds,
	}
}

func main() {
	flag.Parse()
	if *urlFlag != "" {
		runURLMode()
		return
	}

	mats := mkPatterns(*patterns, *nBase)
	// Pattern ids are content-derived, so one registration pass against a
	// throwaway server yields the ids the workload bodies can bake in.
	idPool := basker.NewShardedPool(1, basker.PoolOptions{Options: basker.Options{Threads: 1}})
	idSrv := serve.NewServer(idPool, serve.Options{})
	ids := register(func(path string, body []byte) (int, []byte) {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		idSrv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}, mats)

	total := *clients * *perCli
	rng := rand.New(rand.NewSource(*seed))
	workload := mkWorkload(mats, ids, total, rng)

	fmt.Printf("baskerload: %d clients × %d requests over %d patterns (n = %d…%d), %d-thread factors\n",
		*clients, *perCli, *patterns, mats[0].N, mats[len(mats)-1].N, *threads)
	fmt.Printf("timing mode: wall clock on %d CPU(s)\n\n", runtime.NumCPU())

	sharded := runConfig(fmt.Sprintf("sharded-%d", *shards), *shards, mats, workload)
	single := runConfig("single-shard", 1, mats, workload)

	rep := report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		HostCPUs:   runtime.NumCPU(),
		TimingMode: "real-wall",
		Clients:    *clients,
		PerClient:  *perCli,
		Patterns:   *patterns,
		NBase:      *nBase,
		Threads:    *threads,
		Mix:        map[string]float64{"solve": 0.75, "refresh": 0.15, "factor": 0.10},
		Configs:    []configResult{sharded, single},
	}
	if sharded.WallSeconds > 0 {
		rep.SpeedupReal = single.WallSeconds / sharded.WallSeconds
	}

	fmt.Printf("%-14s %8s %10s %9s %9s %9s %12s %12s\n",
		"config", "shards", "rps", "p50 ms", "p95 ms", "p99 ms", "lock wait s", "lock hold s")
	for _, r := range rep.Configs {
		fmt.Printf("%-14s %8d %10.0f %9.3f %9.3f %9.3f %12.4f %12.4f\n",
			r.Name, r.Shards, r.ThroughputRPS, r.P50Millis, r.P95Millis, r.P99Millis,
			r.LockWaitSeconds, r.LockHoldSeconds)
		if r.Errors > 0 {
			fatalf("%s: %d request(s) failed", r.Name, r.Errors)
		}
	}
	fmt.Printf("\nwall clock on this host: sharded %.3fs vs single %.3fs (%.2fx on %d CPU)\n",
		sharded.WallSeconds, single.WallSeconds, rep.SpeedupReal, runtime.NumCPU())

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("marshal report: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// runURLMode bursts against a live server over real HTTP — the CI smoke
// path. Patterns are registered first, then every client fires mixed
// traffic; any non-2xx fails the run.
func runURLMode() {
	base := *urlFlag
	client := &http.Client{Timeout: 30 * time.Second}
	do := func(path string, body []byte) (int, []byte) {
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	mats := mkPatterns(*patterns, *nBase)
	ids := register(do, mats)
	rng := rand.New(rand.NewSource(*seed))
	workload := mkWorkload(mats, ids, *clients**perCli, rng)

	lat := make([]float64, len(workload))
	var errs int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(workload); i += *clients {
				it := workload[i]
				s0 := time.Now()
				status, raw := do(it.path, it.body)
				lat[i] = time.Since(s0).Seconds()
				if status != http.StatusOK {
					mu.Lock()
					errs++
					if errs == 1 {
						fmt.Fprintf(os.Stderr, "baskerload: %s -> %d: %s\n", it.path, status, raw)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	sort.Float64s(lat)
	fmt.Printf("baskerload: %d requests against %s in %.3fs (%.0f rps)\n",
		len(workload), base, wall, float64(len(workload))/wall)
	fmt.Printf("latency: p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		percentile(lat, 0.50)*1e3, percentile(lat, 0.95)*1e3, percentile(lat, 0.99)*1e3)
	if errs > 0 {
		fatalf("%d request(s) returned non-2xx", errs)
	}
	fmt.Println("all responses 2xx")
}
