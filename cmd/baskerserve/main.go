// Command baskerserve runs the solver-as-a-service HTTP front end: one
// factorization pool behind the JSON endpoints of package serve.
//
// Usage:
//
//	baskerserve -addr=:8080 -threads=4 -max-inflight=64
//
// The pool's counters, lock wait and hold seconds included, appear at
// /debug/vars ("basker_pool"), liveness at /healthz, and the structured
// counter block at /v1/stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	basker "repro"
	"repro/serve"
)

var (
	addr    = flag.String("addr", ":8080", "listen address")
	threads = flag.Int("threads", 0, "worker goroutines per factorization (0 = GOMAXPROCS)")
	maxConc = flag.Int("max-concurrent-factors", 0,
		"admission cap on concurrent fresh factorizations (0 = unlimited)")
	maxBytes = flag.Int64("max-bytes", 0,
		"memory bound on idle cached factorizations in bytes (0 = unbounded)")
	maxPatterns = flag.Int("max-cached-patterns", 0,
		"symbolic-analysis cache capacity (0 = default)")
	maxInflight = flag.Int("max-inflight", 256,
		"HTTP requests processed concurrently before shedding 503 overloaded (0 = unlimited)")
	defaultTimeout = flag.Duration("default-timeout", 30*time.Second,
		"deadline applied to requests that carry no timeout_ms (0 = none)")
	stallTimeout = flag.Duration("stall-timeout", 10*time.Second,
		"per-sweep stall watchdog; a wedged sweep aborts with 503 stalled instead of hanging (0 disables)")
	validate = flag.Bool("validate", true,
		"screen incoming matrices for non-finite values before factoring (inline CSC structure is always checked)")
)

func main() {
	flag.Parse()
	pool := basker.NewPool(basker.PoolOptions{
		Options: basker.Options{
			Threads:        *threads,
			BigBlockMin:    64,
			StallTimeout:   *stallTimeout,
			ValidateInputs: *validate,
		},
		MaxConcurrentFactors: *maxConc,
		MaxBytes:             *maxBytes,
		MaxCachedPatterns:    *maxPatterns,
	})
	pool.PublishExpvar("basker_pool")

	s := serve.NewServer(pool, serve.Options{
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *defaultTimeout,
	})
	srv := &http.Server{Addr: *addr, Handler: s.Handler()}

	// Graceful shutdown: stop accepting, drain in-flight solves, exit.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(done)
	}()

	log.Printf("baskerserve listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}
