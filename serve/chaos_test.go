package serve

import (
	"net/http"
	"sync"
	"testing"

	basker "repro"
	"repro/internal/faultinject"
	"repro/internal/matgen"
)

// chaosServeMatrix mirrors the library chaos battery's shape: enough
// blocks and fill that refresh and factor sweeps run their parallel paths,
// where the injection points live.
func chaosServeMatrix(seed int64) *basker.Matrix {
	return matgen.Circuit(matgen.CircuitParams{
		N: 700, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: seed,
	})
}

func newChaosServer(t *testing.T, inject *faultinject.Injector) (*Server, string) {
	t.Helper()
	pool := basker.NewPool(basker.PoolOptions{
		Options:              basker.Options{Threads: 4, BigBlockMin: 64}.InjectFaults(inject),
		MaxConcurrentFactors: 2,
	})
	s := NewServer(pool, Options{})
	ts := newHTTPServer(t, s)
	return s, ts
}

// scaledValues returns a same-pattern values vector drifted by factor c —
// the refresh traffic that drives the pool's Refactor sweep, where the
// chaos points fire.
func scaledValues(a *basker.Matrix, c float64) []float64 {
	vals := make([]float64, len(a.Values))
	for i, v := range a.Values {
		vals[i] = c * v
	}
	return vals
}

// TestServeChaosWorkerPanic drives an injected worker panic through the
// whole service stack: the request answers 500 internal_panic (never a
// hung connection, never a dead process), the poisoned entry does not
// survive in the cache, and the next same-pattern request recovers with a
// fresh factorization.
func TestServeChaosWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	s, url := newChaosServer(t, inject)
	a := chaosServeMatrix(11)

	status, raw := postJSON(t, url+"/v1/matrices", RegisterRequest{Matrix: matrixJSON(a), Warm: true})
	if status != http.StatusOK {
		t.Fatalf("register: status %d, body %s", status, raw)
	}
	var reg RegisterResponse
	decodeInto(t, raw, &reg)

	// Every parallel sweep consultation panics: the refresh panics, and so
	// does every fresh-factor fallback behind it — the error must surface
	// as a mapped 500, not kill the server.
	inject.Arm(faultinject.PointWorkerPanic, faultinject.Any())
	vals := scaledValues(a, 1.5)
	scaled := &basker.Matrix{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: vals}
	b, _ := rhsFor(scaled, 70)
	status, raw = postJSON(t, url+"/v1/solve", SolveRequest{ID: reg.ID, Values: vals, B: b})
	if inject.Fired(faultinject.PointWorkerPanic) == 0 {
		t.Skip("no parallel sweep consulted the panic point at this configuration")
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, body %s, want 500", status, raw)
	}
	if code := errCode(t, raw); code != "internal_panic" {
		t.Fatalf("panicked request code %q, want internal_panic", code)
	}

	// The service is still alive and healthy.
	var health map[string]string
	if st := getJSON(t, url+"/healthz", &health); st != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz after panic: %d %v", st, health)
	}

	// Recovery: disarmed, the same pattern factors fresh and solves right.
	inject.DisarmAll()
	missesBefore := s.pool.Stats().Misses
	b2, x2 := rhsFor(scaled, 71)
	status, raw = postJSON(t, url+"/v1/solve", SolveRequest{ID: reg.ID, Values: vals, B: b2})
	if status != http.StatusOK {
		t.Fatalf("recovery solve: status %d, body %s", status, raw)
	}
	var resp SolveResponse
	decodeInto(t, raw, &resp)
	wantClose(t, resp.X, x2, "recovered x")
	if got := s.pool.Stats().Misses; got == missesBefore {
		t.Fatalf("recovery reused a cache entry; the poisoned factorization must have been dropped (misses %d)", got)
	}
}

// TestServeChaosKernelNaN drives silent numeric corruption through the
// stack: the injected NaN survives the refresh without an error, so only
// the serving layer's finiteness screen stands between it and the client —
// the response must be 500 not_finite_solution, the corrupted entry
// discarded, and the next request clean.
func TestServeChaosKernelNaN(t *testing.T) {
	inject := faultinject.New()
	s, url := newChaosServer(t, inject)
	a := chaosServeMatrix(12)

	status, raw := postJSON(t, url+"/v1/matrices", RegisterRequest{Matrix: matrixJSON(a), Warm: true})
	if status != http.StatusOK {
		t.Fatalf("register: status %d, body %s", status, raw)
	}
	var reg RegisterResponse
	decodeInto(t, raw, &reg)

	inject.Arm(faultinject.PointKernelNaN, faultinject.Rule{
		Sweep: faultinject.SweepPartial, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	// Restamping the last tenth of the columns keeps Refactor on its
	// partial sweep (from half the columns on it runs the full one), and
	// those columns lie in small BTF blocks, whose kernels read the NaN.
	vals := append([]float64(nil), a.Values...)
	for p := a.Colptr[a.N-a.N/10]; p < len(vals); p++ {
		vals[p] *= 1.25
	}
	scaled := &basker.Matrix{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: vals}
	b, _ := rhsFor(scaled, 80)
	status, raw = postJSON(t, url+"/v1/solve", SolveRequest{ID: reg.ID, Values: vals, B: b})
	if inject.Fired(faultinject.PointKernelNaN) == 0 {
		t.Skip("refresh did not consult the NaN point at this configuration")
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("NaN-corrupted request: status %d, body %s, want 500", status, raw)
	}
	if code := errCode(t, raw); code != "not_finite_solution" {
		t.Fatalf("NaN-corrupted request code %q, want not_finite_solution", code)
	}
	if got := s.pool.Stats().Discards; got == 0 {
		t.Fatalf("corrupted factorization was not discarded: %+v", s.pool.Stats())
	}

	// Clean recovery on the same pattern.
	inject.DisarmAll()
	b2, x2 := rhsFor(scaled, 81)
	status, raw = postJSON(t, url+"/v1/solve", SolveRequest{ID: reg.ID, Values: vals, B: b2})
	if status != http.StatusOK {
		t.Fatalf("recovery solve: status %d, body %s", status, raw)
	}
	var resp SolveResponse
	decodeInto(t, raw, &resp)
	wantClose(t, resp.X, x2, "recovered x")
}

// TestServeChaosStorm hammers the service with mixed-pattern traffic while
// faults come and go: every response is a well-formed JSON verdict (2xx or
// mapped 5xx, never a hang, never a dead process), and after the chaos
// clears every pattern still solves correctly and every slot of the pool's
// admission cap (MaxConcurrentFactors, one bound for all patterns) is back.
func TestServeChaosStorm(t *testing.T) {
	inject := faultinject.New()
	s, url := newChaosServer(t, inject)

	pats := make([]*basker.Matrix, 4)
	ids := make([]string, len(pats))
	for i := range pats {
		pats[i] = matgen.Circuit(matgen.CircuitParams{
			N: 180 + 40*i, BTFPct: 50, Blocks: 10, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: int64(30 + i),
		})
		status, raw := postJSON(t, url+"/v1/matrices", RegisterRequest{Matrix: matrixJSON(pats[i]), Warm: true})
		if status != http.StatusOK {
			t.Fatalf("register %d: status %d, body %s", i, status, raw)
		}
		var reg RegisterResponse
		decodeInto(t, raw, &reg)
		ids[i] = reg.ID
	}

	// Intermittent chaos: a bounded burst of panics while the storm runs.
	inject.Arm(faultinject.PointWorkerPanic, faultinject.AnyTimes(6))

	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(pats)
				vals := scaledValues(pats[i], 1+0.01*float64(g*iters+it))
				scaled := &basker.Matrix{M: pats[i].M, N: pats[i].N, Colptr: pats[i].Colptr, Rowidx: pats[i].Rowidx, Values: vals}
				b, _ := rhsFor(scaled, int64(g*1000+it))
				status, raw := postJSON(t, url+"/v1/solve", SolveRequest{ID: ids[i], Values: vals, B: b})
				switch status {
				case http.StatusOK:
					var resp SolveResponse
					decodeInto(t, raw, &resp)
					if len(resp.X) != pats[i].N {
						t.Errorf("goroutine %d iter %d: %d components, want %d", g, it, len(resp.X), pats[i].N)
					}
				case http.StatusInternalServerError:
					if code := errCode(t, raw); code != "internal_panic" && code != "not_finite_solution" {
						t.Errorf("goroutine %d iter %d: unexpected 500 code %q", g, it, code)
					}
				default:
					t.Errorf("goroutine %d iter %d: unexpected status %d, body %s", g, it, status, raw)
				}
				mu.Lock()
				counts[status]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	inject.DisarmAll()

	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded during the storm: %v", counts)
	}

	// The chaos has cleared: every pattern must solve correctly again.
	for i, a := range pats {
		b, x := rhsFor(a, int64(90+i))
		status, raw := postJSON(t, url+"/v1/solve", SolveRequest{ID: ids[i], B: b})
		if status != http.StatusOK {
			t.Fatalf("post-storm solve %d: status %d, body %s", i, status, raw)
		}
		var resp SolveResponse
		decodeInto(t, raw, &resp)
		wantClose(t, resp.X, x, "post-storm x")
	}
	var health map[string]string
	if st := getJSON(t, url+"/healthz", &health); st != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz after storm: %d %v", st, health)
	}
	if got := s.pool.Stats().InFlightFactors; got != 0 {
		t.Fatalf("admission slots leaked through the storm: %d", got)
	}
}
