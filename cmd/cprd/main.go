// Command cprd is the control-plane-repair daemon: a long-running HTTP
// service that parses configuration sets once into a content-addressed
// session cache and answers verify/explain/repair queries against the
// cached model, under per-request deadlines and bounded concurrency.
//
// Usage:
//
//	cprd [-listen :8080] [-sessions 64] [-workers N] [-queue N] [-timeout 5m]
//
// Endpoints (see the README section "Running cprd" for JSON shapes):
//
//	POST /v1/load     parse configs → cached session (content hash)
//	POST /v1/delta    derive a session from a cached one + changed configs
//	POST /v1/verify   violated policies of a cached session
//	POST /v1/explain  counterexamples for violated policies
//	POST /v1/repair   minimal repair (worker pool; 429 when saturated)
//	GET  /healthz     liveness
//	GET  /readyz      drain-aware readiness (503 once shutdown begins)
//	GET  /statsz      cache/solver/latency/retained-memory statistics
//
// Sessions are incremental: each cached session retains the answers of
// its solved sub-problems (outcome + staged repair), and /v1/delta derives
// a new session that re-parses only the changed configs and replays any
// retained sub-problem a change cannot reach — byte-identical to a cold
// solve, at a fraction of the latency. The retained memory is visible
// under "retained" in /statsz; an evicted session is freed once no request
// holds it. Unless GOGC is set in the environment, the daemon runs the
// collector at a target of 400 (see server.New).
//
// With -pprof ADDR, net/http/pprof is served on a second listener so live
// CPU/heap profiles can be pulled from a running daemon without exposing
// the profiler on the service port.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight requests for up to the -drain period before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (served only via -pprof)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "HTTP listen address")
		sessions = flag.Int("sessions", 64, "session cache capacity (LRU)")
		workers  = flag.Int("workers", 0, "concurrent repair solves (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "queued repairs beyond running ones before 429 (0 = 2×workers)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "default per-request deadline")
		maxTO    = flag.Duration("max-timeout", 30*time.Minute, "cap on client-requested deadlines")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown drain period")
		notice   = flag.Duration("drain-notice", 0, "after flipping /readyz to 503, keep accepting this long so balancers observe the drain (set to ≥2× the balancer probe interval)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	if *pprofA != "" {
		// The main server uses its own handler, so DefaultServeMux holds
		// only the pprof routes registered by the blank import above.
		go func() {
			log.Printf("cprd pprof listening on %s", *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Printf("cprd: pprof server: %v", err)
			}
		}()
	}
	if err := run(*listen, *sessions, *workers, *queue, *timeout, *maxTO, *drain, *notice); err != nil {
		fmt.Fprintln(os.Stderr, "cprd:", err)
		os.Exit(1)
	}
}

func run(listen string, sessions, workers, queue int, timeout, maxTO, drain, notice time.Duration) error {
	// Chaos testing: CPR_FAILPOINTS arms failpoints in the solver,
	// encoder, and session cache (see internal/faultinject). Unset in
	// production, this is a no-op.
	if err := faultinject.FromEnv(); err != nil {
		return err
	}
	if faultinject.Enabled() {
		log.Printf("cprd: fault injection armed from CPR_FAILPOINTS")
	}
	srv := server.New(server.Config{
		MaxSessions:    sessions,
		Workers:        workers,
		QueueDepth:     queue,
		DefaultTimeout: timeout,
		MaxTimeout:     maxTO,
	})
	httpSrv := &http.Server{
		Addr:              listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("cprd listening on %s", listen)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip /readyz to 503 first, then (optionally) keep the listener open
	// for a notice period: a balancer probing readiness re-routes new work
	// before the port actually stops accepting.
	srv.BeginDrain()
	if notice > 0 {
		log.Printf("cprd drain notice: /readyz now 503, accepting for another %v", notice)
		time.Sleep(notice)
	}
	log.Printf("cprd draining (up to %v)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cprd stopped")
	return nil
}
