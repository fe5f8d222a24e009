// Command gcfleet fronts a fleet of gcserved backends with a single
// gcserved-compatible endpoint set. Requests are routed by the content key
// of their canonical plan over a consistent-hash ring (so repeats land on
// the backend whose cache is already warm), a collect result seen twice is
// kept in an edge cache and served by the fleet itself from then on, a core
// sweep runs as its collect points, each routed to its own owner, failures
// fail over to the next ring replica under a capped-backoff retry policy,
// unhealthy backends are quarantined by per-backend circuit breakers fed by
// /healthz probing, and POST /v1/batch scatter-gathers mixed collect/sweep
// experiments with per-item partial-failure reporting.
// Parameter-space sweeps run on the same sweep coordinator as gcserved's,
// with a point runner that sends each point's job to its ring owner and
// polls its result every -sweep-poll; sweep state lives in the proxy's
// memory.
//
// Usage:
//
//	gcfleet -backends http://h1:8080,http://h2:8080,http://h3:8080
//	        [-addr :8090] [-replicas 3] [-attempts 4] [-timeout 60s]
//	        [-health-interval 2s] [-breaker-failures 3] [-breaker-cooldown 5s]
//	        [-batch-inflight 4] [-sweep-poll 250ms]
//	        [-cache-entries 1024] [-cache-mb 64] [-drain 30s]
//
// The ring has cluster.DefaultVnodes virtual nodes per backend, a 429's
// Retry-After is honored for at most 5s, and a rebalance pass can move or
// rescue the newest 4096 job submissions.
//
// Endpoints (same wire format as one gcserved):
//
//	POST /v1/collect   served from the edge cache, else routed to the key's
//	                   ring owner and proxied verbatim
//	POST /v1/sweep     expanded into its collect points, each answered like
//	                   /v1/collect by its own owner; the reply is assembled
//	                   at the fleet, byte-identical to one gcserved's
//	POST /v1/batch     scatter-gather over the fleet, per-item results
//	POST /v1/jobs      async collect jobs, routed by the job's content key
//	GET  /v1/jobs/{id} job status/result/events, routed like the submit
//	POST /v1/sweeps    sweep spec planned at the proxy, points fanned out
//	                   to their cache-owning backends by content key
//	GET  /v1/sweeps/{id}[/events]  progress + ranked frontier aggregated
//	                   at the proxy; SSE with Last-Event-ID resume
//	DELETE /v1/sweeps/{id}  cancel a running sweep: pending points are
//	                   cancelled at once, their unshared jobs best-effort
//	GET  /v1/workloads proxied from any live backend
//	GET  /healthz      fleet health (ok while any backend is admissible)
//	GET  /metrics      fleet-level Prometheus counters
//
// Admin (elastic membership — see internal/cluster/rebalance.go):
//
//	POST   /v1/admin/backends      health-gated join of a new backend
//	DELETE /v1/admin/backends/{id} remove a backend (its jobs move to their new owners)
//	GET    /v1/admin/topology      ring membership, shares, breaker states
//	POST   /v1/admin/rebalance     synchronous rebalance pass: moved jobs are
//	                               resubmitted to their new owner, then released
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

	"hwgc/internal/cluster"
)

func main() {
	addr, opts, drain, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcfleet:", err)
		os.Exit(2)
	}
	if err := run(addr, opts, drain); err != nil {
		fmt.Fprintln(os.Stderr, "gcfleet:", err)
		os.Exit(1)
	}
}

// parseOptions turns CLI arguments into fleet options. Split from main so
// flag wiring is testable without spawning a process.
func parseOptions(args []string) (addr string, opts cluster.Options, drain time.Duration, err error) {
	fs := flag.NewFlagSet("gcfleet", flag.ContinueOnError)
	var (
		addrFlag       = fs.String("addr", ":8090", "listen address")
		backends       = fs.String("backends", "", "comma-separated gcserved base URLs (required)")
		replicas       = fs.Int("replicas", 3, "ring replicas tried per request (failover width)")
		attempts       = fs.Int("attempts", 4, "total send attempts per request across replicas and retries")
		timeout        = fs.Duration("timeout", 60*time.Second, "per-request deadline including retries")
		healthInterval = fs.Duration("health-interval", 2*time.Second, "backend /healthz probe interval (negative = disabled)")
		brkFailures    = fs.Int("breaker-failures", 3, "consecutive failures that open a backend's circuit breaker")
		brkCooldown    = fs.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before the half-open probe")
		batchInflight  = fs.Int("batch-inflight", 4, "concurrent batch items per backend")
		sweepPoll      = fs.Duration("sweep-poll", 250*time.Millisecond, "per-point result poll interval of the fleet sweep runner")
		cacheEntries   = fs.Int("cache-entries", 1024, "edge result cache entry bound (negative = disabled)")
		cacheMB        = fs.Int64("cache-mb", 64, "edge result cache size bound in MiB (negative = disabled)")
		drainFlag      = fs.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	)
	if err := fs.Parse(args); err != nil {
		return "", cluster.Options{}, 0, err
	}
	if fs.NArg() > 0 {
		return "", cluster.Options{}, 0, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *backends == "" {
		return "", cluster.Options{}, 0, fmt.Errorf("-backends is required")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return "", cluster.Options{}, 0, fmt.Errorf("-backends lists no URLs")
	}
	return *addrFlag, cluster.Options{
		Backends:         urls,
		Replicas:         *replicas,
		MaxAttempts:      *attempts,
		Timeout:          *timeout,
		HealthInterval:   *healthInterval,
		BreakerThreshold: *brkFailures,
		BreakerCooldown:  *brkCooldown,
		BatchInflight:    *batchInflight,
		SweepPoll:        *sweepPoll,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheMB << 20,
	}, *drainFlag, nil
}

func run(addr string, opts cluster.Options, drain time.Duration) error {
	f, err := cluster.New(opts)
	if err != nil {
		return err
	}
	f.Start()
	defer f.Close()

	hs := &http.Server{
		Addr:              addr,
		Handler:           f.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("gcfleet: listening on %s, %d backends", addr, len(f.Backends()))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("gcfleet: shutting down, draining for up to %s", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("gcfleet: http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("gcfleet: drained cleanly")
	return nil
}
