package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"rasengan/internal/cluster"
	"rasengan/internal/metrics"
	"rasengan/internal/service"
)

// backendIDs are the two journaled backends behind the gateway.
var backendIDs = []string{"n1", "n2"}

// jobRetention bounds each backend's ring of finished jobs. Every job in
// the ring keeps its solve's state, so resident memory grows with the
// ring until it is full; at 256 entries the ring fills within the first
// seconds of every measured pass, and peak RSS then shows the retained
// cost per job rather than how many requests one run managed to send.
const jobRetention = 256

// topology is the service under test: a gateway in front of two
// in-process journaled backends, all on loopback HTTP listeners.
type topology struct {
	gw      *cluster.Gateway
	gwURL   string
	nodes   []*service.Server
	servers []*http.Server
	wg      sync.WaitGroup
	dataDir string
}

// startTopology opens the backends on fresh data directories under
// dataDir and the gateway over them. With tr non-nil every handler and
// the Solve hook are wrapped to record spans.
func startTopology(dataDir string, tr *tracer) (*topology, error) {
	t := &topology{dataDir: dataDir}
	var backends []*cluster.Backend
	for _, id := range backendIDs {
		cfg := service.Config{
			Executors:    1,
			WorkerBudget: 1,
			DataDir:      filepath.Join(dataDir, id),
			JobRetention: jobRetention,
		}
		if tr != nil {
			cfg.Solve = tr.solveHook(id)
		}
		srv, err := service.Open(cfg)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("open backend %s: %w", id, err)
		}
		t.nodes = append(t.nodes, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrapService(id, h)
		}
		url, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		backends = append(backends, cluster.NewBackend(id, url))
	}
	gw, err := cluster.New(cluster.Config{Backends: backends, Seed: 1})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gw = gw
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.wrapGateway(h)
	}
	if t.gwURL, err = t.serve(h); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// serve starts an HTTP server for h on a loopback port.
func (t *topology) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	t.servers = append(t.servers, hs)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, drains and closes the backends, waits for
// every server goroutine and removes the data directories.
func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range t.servers {
		_ = hs.Shutdown(ctx) // in-flight requests end with the drain below
	}
	for _, srv := range t.nodes {
		_ = srv.Drain(ctx)
		_ = srv.Close()
	}
	t.wg.Wait()
	_ = os.RemoveAll(t.dataDir)
	// Flush the removal now, so its disk work does not land in the
	// next measured window.
	syscall.Sync()
}

// scrape reads a registry the way a /metrics scraper would: every sample
// line of its Prometheus text form, keyed by name with labels.
func scrape(reg *metrics.Registry) map[string]float64 {
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumPrefix adds every sample whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// counters is a snapshot of the program's own counters across the
// topology, as reported by Server.Metrics() and Gateway.Metrics().
type counters struct {
	cacheHits, cacheMisses float64
	fsyncs                 float64
	accepted               float64
	solveRequests          []float64 // per backend
	retries                float64
}

func (t *topology) counters() counters {
	var c counters
	for _, srv := range t.nodes {
		m := scrape(srv.Metrics())
		c.cacheHits += m["rasengan_cache_hits_total"]
		c.cacheMisses += m["rasengan_cache_misses_total"]
		c.fsyncs += m["rasengan_wal_fsyncs"]
		c.accepted += m["rasengan_jobs_submitted_total"]
		c.solveRequests = append(c.solveRequests, sumPrefix(m, `rasengan_http_requests_total{route="solve"`))
	}
	c.retries = scrape(t.gw.Metrics())["rasengan_gateway_retries_total"]
	return c
}

// sub returns the counter deltas c − before.
func (c counters) sub(before counters) counters {
	d := counters{
		cacheHits:   c.cacheHits - before.cacheHits,
		cacheMisses: c.cacheMisses - before.cacheMisses,
		fsyncs:      c.fsyncs - before.fsyncs,
		accepted:    c.accepted - before.accepted,
		retries:     c.retries - before.retries,
	}
	for i := range c.solveRequests {
		d.solveRequests = append(d.solveRequests, c.solveRequests[i]-before.solveRequests[i])
	}
	return d
}
