// Command cprfront is the fleet's stateless routing tier: it
// consistent-hash-routes cprd API requests by session content address
// across N worker replicas, with per-replica readiness probes,
// time-boxed ownership leases, bounded retry with key-jittered backoff,
// hedged failover to the ring successor, and graceful rebalance on
// scale-up/down.
//
// Usage:
//
//	cprfront [-listen :8090] [-probe 1s] [-drain 30s] -replicas http://w1:8080,http://w2:8080,http://w3:8080
//
// A passing probe grants a three-interval ownership lease. The rest of
// the routing is fixed: 64 virtual nodes per replica, one same-replica
// retry after a 25ms key-jittered backoff, a hedge to the ring successor
// after 1s, each new session placed on two replicas, and a 64 MiB
// request-body cap.
//
// Endpoints:
//
//	POST /v1/load      routed by the config set's content key
//	POST /v1/delta     routed by the base session; places a new session
//	POST /v1/verify    routed by session; draining replicas still serve
//	POST /v1/explain   routed by session
//	POST /v1/repair    routed by session
//	GET  /healthz      front liveness
//	GET  /readyz       503 while draining or no replica is eligible
//	GET  /fleetz       ring membership, per-replica state, routing counters
//	POST /admin/replicas  {"add":[...],"drain":[...],"remove":[...]}
//
// Routing is a pure function of the request's content address and the
// probed ring state: any front instance (or a restarted one) routes
// identically, so fronts scale horizontally behind a dumb TCP balancer.
// Because worker answers are deterministic in the session contents, a
// request answered by any healthy replica is byte-identical to the
// single-node answer.
//
// On SIGINT/SIGTERM the front flips /readyz to 503 and drains in-flight
// forwards for up to the -drain period before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	var (
		listen   = flag.String("listen", ":8090", "HTTP listen address")
		replicas = flag.String("replicas", "", "comma-separated cprd base URLs (required)")
		probe    = flag.Duration("probe", time.Second, "readiness-probe interval (ownership lease = 3×probe)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown drain period")
	)
	flag.Parse()
	if err := run(*listen, *replicas, *probe, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "cprfront:", err)
		os.Exit(1)
	}
}

func run(listen, replicas string, probe, drain time.Duration) error {
	var names []string
	for _, r := range strings.Split(replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			names = append(names, strings.TrimRight(r, "/"))
		}
	}
	if len(names) == 0 {
		return errors.New("no replicas given (use -replicas http://host:port,...)")
	}
	front := fleet.New(fleet.Config{Replicas: names, ProbeInterval: probe})
	front.Start()
	defer front.Close()

	httpSrv := &http.Server{
		Addr:              listen,
		Handler:           front.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("cprfront listening on %s, routing to %d replicas", listen, len(names))
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	front.BeginDrain()
	log.Printf("cprfront draining (up to %v)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cprfront stopped")
	return nil
}
