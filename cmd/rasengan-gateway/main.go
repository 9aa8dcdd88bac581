// Command rasengan-gateway fronts N rasengan-serve backends with a
// consistent-hash solve router: one API endpoint, many nodes.
//
// Usage:
//
//	rasengan-gateway -addr :8080 -backend n1=http://10.0.0.1:8081 -backend n2=http://10.0.0.2:8081
//	rasengan-gateway -addr :8080 -backend http://a:8081 -backend http://b:8081   # auto-named n1, n2
//	rasengan-gateway -addr :8080 -backend n1=http://a:8081 -health-interval 250ms   # faster ejection
//
// Routing is keyed on the canonical spec hash, so repeat submissions
// of one spec land on the backend already holding its cached payload,
// journal entry, and warm-start vector. Upstream 429/503 rejections
// are retried under a jittered exponential backoff that honors the
// backend's computed Retry-After; transport failures advance to the
// next ring replica. Active /healthz probes eject dead or draining
// backends (their key ranges reroute) and re-admit them when they
// recover — without moving any other key.
//
// The gateway serves the same API surface as one rasengan-serve:
// /v1/solve, /v1/solve/batch, /v1/jobs, /v1/jobs/{id} (+ /events SSE,
// /cancel), /v1/problems, /healthz, and its own /metrics
// (rasengan_gateway_* series: per-backend up/queued/executing gauges,
// retry/failover counters, route latency histograms).
//
// Job ids are "<backend>.<upstream id>", so any gateway instance can
// route a poll statelessly. When a backend dies, polls for its jobs
// fail over: the gateway re-submits the stashed original request to
// the key's new ring owner — deterministic, content-addressed solves
// make the replayed payload byte-identical — or answers a clean
// retryable 503 when no stash exists.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rasengan/internal/cluster"
)

// backendFlags collects repeatable -backend values: "name=url" or a
// bare url (auto-named n1, n2, ... in flag order).
type backendFlags struct {
	backends []*cluster.Backend
}

func (f *backendFlags) String() string {
	var parts []string
	for _, b := range f.backends {
		parts = append(parts, b.ID+"="+b.URL())
	}
	return strings.Join(parts, ",")
}

func (f *backendFlags) Set(v string) error {
	id, raw := fmt.Sprintf("n%d", len(f.backends)+1), v
	if i := strings.IndexByte(v, '='); i > 0 && !strings.HasPrefix(v, "http") {
		id, raw = v[:i], v[i+1:]
	}
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("backend %q: want name=http://host:port or http://host:port", v)
	}
	f.backends = append(f.backends, cluster.NewBackend(id, strings.TrimRight(raw, "/")))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rasengan-gateway: ")

	var backends backendFlags
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		vnodes     = flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per backend on the hash ring")
		seed       = flag.Uint64("seed", 0, "ring placement seed (gateways sharing seed and backends route identically)")
		healthInt  = flag.Duration("health-interval", time.Second, "active /healthz probe period")
		healthTO   = flag.Duration("health-timeout", 0, "per-probe timeout (0 = the probe period)")
		failN      = flag.Int("fail-threshold", 2, "consecutive failed probes before a backend is ejected")
		riseN      = flag.Int("rise-threshold", 2, "consecutive good probes before an ejected backend is re-admitted")
		retryN     = flag.Int("retry-attempts", 3, "total upstream attempts per request (including the first)")
		retryBase  = flag.Duration("retry-base", 100*time.Millisecond, "first backoff delay (doubles per retry, jittered)")
		retryMax   = flag.Duration("retry-max", 5*time.Second, "cap on any single backoff wait")
		retryBudg  = flag.Duration("retry-budget", 15*time.Second, "total wait budget across one request's retries")
		jobEntries = flag.Int("job-map", 65536, "job → backend entries retained for failover re-submission")
	)
	flag.Var(&backends, "backend", "backend as name=url or bare url (repeatable; at least one required)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if len(backends.backends) == 0 {
		fatal("at least one -backend is required")
	}
	if *vnodes < 1 {
		fatal("-vnodes must be >= 1", "got", *vnodes)
	}
	if *healthInt <= 0 || *healthTO < 0 {
		fatal("-health-timeout must be >= 0 and -health-interval > 0")
	}
	if *failN < 1 || *riseN < 1 {
		fatal("-fail-threshold and -rise-threshold must be >= 1")
	}
	if *retryN < 1 {
		fatal("-retry-attempts must be >= 1", "got", *retryN)
	}
	if *jobEntries < 1 {
		fatal("-job-map must be >= 1", "got", *jobEntries)
	}

	gw, err := cluster.New(cluster.Config{
		Backends:     backends.backends,
		Seed:         *seed,
		VirtualNodes: *vnodes,
		Retry: cluster.RetryPolicy{
			MaxAttempts: *retryN,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Budget:      *retryBudg,
		},
		HealthInterval: *healthInt,
		HealthTimeout:  *healthTO,
		FailThreshold:  *failN,
		RiseThreshold:  *riseN,
		JobMapEntries:  *jobEntries,
		Logger:         logger,
	})
	if err != nil {
		fatal("configure gateway", "error", err.Error())
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Prime health state before serving so the first requests route on
	// probed reality, then keep probing in the background.
	gw.CheckHealth(sigCtx)
	go gw.Run(sigCtx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "backends", backends.String(),
			"vnodes", *vnodes, "seed", *seed)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal("listen failed", "error", err.Error())
	case <-sigCtx.Done():
		logger.Info("received shutdown signal")
	}
	stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err.Error())
	}
	logger.Info("exiting")
}
