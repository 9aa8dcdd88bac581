package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"rasengan/internal/metrics"
	"rasengan/internal/problems"
)

// Config sizes the gateway. Zero values select documented defaults.
type Config struct {
	// Backends are the upstream rasengan-serve instances. IDs must be
	// unique, non-empty, and free of '.' (they prefix gateway job ids).
	Backends []*Backend
	// Seed fixes ring placement; two gateways with the same seed and
	// backend set route every spec identically.
	Seed uint64
	// VirtualNodes per backend (default DefaultVirtualNodes).
	VirtualNodes int
	// Retry is the upstream retry/backoff policy (zero = defaults).
	Retry RetryPolicy
	// HealthInterval is the active /healthz probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default: HealthInterval).
	HealthTimeout time.Duration
	// FailThreshold consecutive bad probes eject a backend (default 2);
	// RiseThreshold consecutive good ones re-admit it (default 2).
	FailThreshold int
	RiseThreshold int
	// JobMapEntries bounds the job → backend index (default 65536).
	// Evicted entries lose only their failover stash; polls still route
	// via the id's backend prefix.
	JobMapEntries int
	// Logger receives routing and failover records; nil discards.
	Logger *slog.Logger
}

// Gateway is the cluster front end: it shards solve traffic across
// backends on a consistent-hash ring keyed by canonical spec hash,
// retries rejected calls under the policy, and fails polls over when an
// owner dies.
type Gateway struct {
	cfg      Config
	ring     *Ring
	backends map[string]*Backend
	jobs     *jobMap
	checker  *healthChecker
	client   *http.Client
	reg      *metrics.Registry
	log      *slog.Logger

	retriesTotal  metrics.Counter
	failoversExec metrics.Counter
	failoversLost metrics.Counter
	noBackend     metrics.Counter
}

// New validates the config and builds a gateway. Call Run (or
// CheckHealth periodically) to keep ejection state current.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if cfg.JobMapEntries == 0 {
		cfg.JobMapEntries = 65536
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	byID := map[string]*Backend{}
	var ids []string
	for _, b := range cfg.Backends {
		if b.ID == "" || strings.ContainsAny(b.ID, "./ ") {
			return nil, fmt.Errorf("cluster: invalid backend id %q (must be non-empty, no '.', '/', or space)", b.ID)
		}
		if _, dup := byID[b.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend id %q", b.ID)
		}
		byID[b.ID] = b
		ids = append(ids, b.ID)
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(cfg.Seed, cfg.VirtualNodes, ids),
		backends: byID,
		jobs:     newJobMap(cfg.JobMapEntries),
		client:   &http.Client{},
		reg:      metrics.NewRegistry(),
		log:      cfg.Logger,
	}
	g.checker = newHealthChecker(g.ring, byID, cfg.HealthInterval, cfg.HealthTimeout,
		cfg.FailThreshold, cfg.RiseThreshold, func(b *Backend, up bool) {
			if up {
				g.log.Info("backend re-admitted", "backend", b.ID, "url", b.URL())
			} else {
				g.log.Warn("backend ejected", "backend", b.ID, "url", b.URL())
			}
		})

	r := g.reg
	g.retriesTotal = r.Counter("rasengan_gateway_retries_total", "Upstream attempts retried under the backoff policy.")
	g.failoversExec = r.Counter("rasengan_gateway_failovers_total", "Jobs re-submitted to a replica after their owner became unreachable.")
	g.failoversLost = r.Counter("rasengan_gateway_failover_unavailable_total", "Polls for jobs on a dead owner with no stashed request to fail over (answered 503).")
	g.noBackend = r.Counter("rasengan_gateway_no_backend_total", "Requests rejected because no live backend was available.")
	for _, b := range cfg.Backends {
		b := b
		r.GaugeFuncWith("rasengan_gateway_backend_up", "Backend routability (1 = in the ring, 0 = ejected).", func() float64 {
			if b.Up() {
				return 1
			}
			return 0
		}, [2]string{"backend", b.ID})
		r.GaugeFuncWith("rasengan_gateway_backend_queued", "Last observed queue depth per backend.", func() float64 {
			_, q, _ := b.Stats()
			return float64(q)
		}, [2]string{"backend", b.ID})
		r.GaugeFuncWith("rasengan_gateway_backend_executing", "Last observed executing-solve count per backend.", func() float64 {
			_, _, e := b.Stats()
			return float64(e)
		}, [2]string{"backend", b.ID})
	}
	return g, nil
}

// Run probes backend health until ctx is done (the serving binary runs
// this next to the listener).
func (g *Gateway) Run(ctx context.Context) { g.checker.Run(ctx) }

// CheckHealth runs one synchronous probe pass (startup, tests).
func (g *Gateway) CheckHealth(ctx context.Context) { g.checker.CheckAll(ctx) }

// Backend returns the named backend, or nil.
func (g *Gateway) Backend(id string) *Backend { return g.backends[id] }

// Ring exposes the routing ring (tests assert placement).
func (g *Gateway) Ring() *Ring { return g.ring }

// Metrics exposes the gateway registry.
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// Handler returns the routed HTTP handler — the same API surface as
// one rasengan-serve, fronting all of them.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", g.instrument("solve", g.handleSolve))
	mux.HandleFunc("POST /v1/solve/batch", g.instrument("solve_batch", g.handleBatch))
	mux.HandleFunc("GET /v1/jobs", g.instrument("jobs", g.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", g.instrument("job", g.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", g.instrument("job_events", g.handleJobEvents))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", g.instrument("cancel", g.handleCancel))
	mux.HandleFunc("GET /v1/problems", g.instrument("problems", g.handleProblems))
	mux.HandleFunc("GET /healthz", g.instrument("healthz", g.handleHealth))
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

func (g *Gateway) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	dur := g.reg.HistogramWith("rasengan_gateway_request_duration_seconds",
		"Gateway request latency by route.", nil, [2]string{"route", route})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		dur.Observe(time.Since(start).Seconds())
		g.reg.CounterWith("rasengan_gateway_requests_total", "Gateway requests by route and status.",
			[2]string{"route", route}, [2]string{"code", fmt.Sprintf("%d", rec.code)}).Inc()
	}
}

// statusRecorder mirrors the service's: transparent to streaming
// handlers (Flush forwards; Unwrap serves http.ResponseController).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func drainBody(resp *http.Response) {
	if resp != nil && resp.Body != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
	}
}

const maxBodyBytes = 1 << 20

// --- envelopes (field order and omitempty mirror internal/service, so
// re-encoding after the job-id rewrite preserves the payload layout;
// Result/Telemetry/Progress stay raw bytes end to end) ---

type solveEnvelope struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
	Progress  json.RawMessage `json:"progress,omitempty"`
}

type batchItemEnvelope struct {
	Code        int             `json:"code"`
	JobID       string          `json:"job_id,omitempty"`
	Status      string          `json:"status,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Error       string          `json:"error,omitempty"`
	RetryAfterS int             `json:"retry_after_s,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

type errorEnvelope struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorEnvelope{Error: fmt.Sprintf(format, args...)})
}

// writeNoBackend answers a request the ring cannot place: every
// backend is ejected. Retryable by construction.
func (g *Gateway) writeNoBackend(w http.ResponseWriter) {
	g.noBackend.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "no live backend available; retry later")
}

// solveBody is the minimally parsed solve request: enough to hash the
// spec and to rebuild a re-submittable stash. Unknown fields are left
// to the backend's strict decoder (the original bytes are forwarded
// verbatim; this struct never replaces them on the primary path).
type solveBody struct {
	Spec      json.RawMessage `json:"spec"`
	Config    json.RawMessage `json:"config,omitempty"`
	WaitMS    int             `json:"wait_ms,omitempty"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

// specHashOf parses and canonically hashes the request's spec. The int
// is the HTTP status on error.
func specHashOf(raw json.RawMessage) (string, int, error) {
	if len(raw) == 0 {
		return "", http.StatusBadRequest, errors.New("missing \"spec\"")
	}
	spec, err := problems.ParseSpec(raw)
	if err != nil {
		return "", http.StatusUnprocessableEntity, err
	}
	h, err := spec.Hash()
	if err != nil {
		return "", http.StatusUnprocessableEntity, err
	}
	return h, 0, nil
}

// stashBody rebuilds a solve request suitable for failover
// re-submission: identical spec/config/timeout (so the cache key matches on
// any node) with wait_ms stripped (polls must not block a failover hop).
func stashBody(b solveBody) []byte {
	out, err := json.Marshal(solveBody{Spec: b.Spec, Config: b.Config, TimeoutMS: b.TimeoutMS})
	if err != nil {
		return nil
	}
	return out
}

// --- upstream forwarding ---

// upstreamDo issues one upstream HTTP request. Bodies are byte slices,
// so retries can replay them.
func (g *Gateway) upstreamDo(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return g.client.Do(req)
}

// forwardKeyed sends the request to the key's ring owner under the
// retry policy. 429/503 rejections retry the same backend (honoring
// its Retry-After); transport errors advance to the next live replica,
// so a request outlives a backend dying mid-flight. Returns the
// backend that produced the final response.
func (g *Gateway) forwardKeyed(ctx context.Context, key, method, path string, body []byte, idempotent bool) (*http.Response, *Backend, error) {
	candidates := g.ring.Successors(key, len(g.backends))
	if len(candidates) == 0 {
		return nil, nil, errNoBackend
	}
	idx := 0
	var last *Backend
	resp, retries, err := g.cfg.Retry.Do(ctx, idempotent, func(try int) (*http.Response, error) {
		b := g.backends[candidates[idx]]
		last = b
		resp, err := g.upstreamDo(ctx, method, b.URL()+path, body)
		if err != nil && idx+1 < len(candidates) {
			// Transport failure: the next attempt goes to the next replica.
			idx++
		}
		return resp, err
	})
	g.retriesTotal.Add(float64(retries))
	return resp, last, err
}

// forwardTo sends the request to one specific backend under the retry
// policy (job polls, cancels: the job lives exactly there).
func (g *Gateway) forwardTo(ctx context.Context, b *Backend, method, path string, body []byte, idempotent bool) (*http.Response, error) {
	resp, retries, err := g.cfg.Retry.Do(ctx, idempotent, func(try int) (*http.Response, error) {
		return g.upstreamDo(ctx, method, b.URL()+path, body)
	})
	g.retriesTotal.Add(float64(retries))
	return resp, err
}

var errNoBackend = errors.New("cluster: no live backend")

// copyResponse forwards an upstream response verbatim (status,
// Retry-After, JSON body) — used for error and rejection passthrough.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, maxBodyBytes))
}

// decodeEnvelope reads and closes an upstream solve/job response body.
func decodeEnvelope(resp *http.Response) (solveEnvelope, error) {
	defer drainBody(resp)
	var env solveEnvelope
	err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&env)
	return env, err
}

// --- handlers ---

func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var body solveBody
	if err := json.Unmarshal(raw, &body); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	hash, code, err := specHashOf(body.Spec)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	resp, backend, err := g.forwardKeyed(r.Context(), hash, http.MethodPost, "/v1/solve", raw, true)
	if err != nil {
		if errors.Is(err, errNoBackend) {
			g.writeNoBackend(w)
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusBadGateway, "backend unreachable: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	env, err := decodeEnvelope(resp)
	if err != nil {
		writeError(w, http.StatusBadGateway, "bad backend response: %v", err)
		return
	}
	id := gatewayJobID(backend.ID, env.JobID)
	g.jobs.put(id, &jobEntry{backend: backend.ID, upstream: env.JobID, specHash: hash, request: stashBody(body)})
	env.JobID = id
	writeJSON(w, resp.StatusCode, env)
}

type batchBody struct {
	Items []json.RawMessage `json:"items"`
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var body batchBody
	if err := json.Unmarshal(raw, &body); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if len(body.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}

	// Shard items by ring owner, preserving each item's original index;
	// per-backend sub-batches keep the one-fsync group-commit property
	// on every node they land on.
	type shardItem struct {
		idx  int
		body solveBody
		raw  json.RawMessage
		hash string
	}
	items := make([]batchItemEnvelope, len(body.Items))
	shards := map[string][]shardItem{}
	for i, rawItem := range body.Items {
		var sb solveBody
		if err := json.Unmarshal(rawItem, &sb); err != nil {
			items[i] = batchItemEnvelope{Code: http.StatusBadRequest, Error: "invalid item: " + err.Error()}
			continue
		}
		hash, code, err := specHashOf(sb.Spec)
		if err != nil {
			items[i] = batchItemEnvelope{Code: code, Error: err.Error()}
			continue
		}
		owner, ok := g.ring.Lookup(hash)
		if !ok {
			g.noBackend.Inc()
			items[i] = batchItemEnvelope{Code: http.StatusServiceUnavailable, Error: "no live backend available", RetryAfterS: 1}
			continue
		}
		shards[owner] = append(shards[owner], shardItem{idx: i, body: sb, raw: rawItem, hash: hash})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards items and the job map ordering
	for owner, shard := range shards {
		wg.Add(1)
		go func(owner string, shard []shardItem) {
			defer wg.Done()
			sub := batchBody{Items: make([]json.RawMessage, len(shard))}
			for i, it := range shard {
				sub.Items[i] = it.raw
			}
			subRaw, _ := json.Marshal(sub)
			b := g.backends[owner]
			resp, err := g.forwardTo(r.Context(), b, http.MethodPost, "/v1/solve/batch", subRaw, true)
			if err != nil {
				mu.Lock()
				for _, it := range shard {
					items[it.idx] = batchItemEnvelope{Code: http.StatusServiceUnavailable,
						Error: "backend unreachable: " + err.Error(), RetryAfterS: 1}
				}
				mu.Unlock()
				return
			}
			defer drainBody(resp)
			var subResp struct {
				Items []batchItemEnvelope `json:"items"`
			}
			if resp.StatusCode != http.StatusOK ||
				json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&subResp) != nil ||
				len(subResp.Items) != len(shard) {
				mu.Lock()
				for _, it := range shard {
					items[it.idx] = batchItemEnvelope{Code: http.StatusBadGateway,
						Error: fmt.Sprintf("bad backend response (status %d)", resp.StatusCode)}
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			for i, it := range shard {
				out := subResp.Items[i]
				if out.JobID != "" {
					id := gatewayJobID(owner, out.JobID)
					g.jobs.put(id, &jobEntry{backend: owner, upstream: out.JobID,
						specHash: it.hash, request: stashBody(it.body)})
					out.JobID = id
				}
				items[it.idx] = out
			}
			mu.Unlock()
		}(owner, shard)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, struct {
		Items []batchItemEnvelope `json:"items"`
	}{items})
}

// resolveJob maps a gateway job id to its entry, reconstructing one
// from the id prefix when the map has never seen (or has evicted) it.
func (g *Gateway) resolveJob(id string) (jobEntry, bool) {
	if e, ok := g.jobs.get(id); ok {
		return e, true
	}
	backend, upstream, ok := splitJobID(id)
	if !ok {
		return jobEntry{}, false
	}
	if _, known := g.backends[backend]; !known {
		return jobEntry{}, false
	}
	return jobEntry{backend: backend, upstream: upstream}, true
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := g.resolveJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	owner := g.backends[entry.backend]

	if !owner.Up() {
		g.failoverPoll(w, r, id, entry)
		return
	}

	resp, err := g.forwardTo(r.Context(), owner, http.MethodGet, "/v1/jobs/"+entry.upstream, nil, true)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing to answer, nothing to fail over
		}
		// The owner died mid-poll (health checking may not have ejected it
		// yet): same failover path as a known-dead owner.
		g.failoverPoll(w, r, id, entry)
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	env, err := decodeEnvelope(resp)
	if err != nil {
		writeError(w, http.StatusBadGateway, "bad backend response: %v", err)
		return
	}
	env.JobID = id
	writeJSON(w, resp.StatusCode, env)
}

// failoverPoll answers a poll whose owner is unreachable. With a
// stashed request the job is re-submitted to the key's current ring
// owner — deterministic, content-addressed solves make the replayed
// job's payload byte-identical — and the gateway id re-points there.
// Without a stash the client gets a clean retryable 503.
func (g *Gateway) failoverPoll(w http.ResponseWriter, r *http.Request, id string, entry jobEntry) {
	if entry.request == nil || entry.specHash == "" {
		g.failoversLost.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"backend %q unavailable and job %q has no failover record; resubmit the spec or retry later",
			entry.backend, id)
		return
	}
	resp, backend, err := g.forwardKeyed(r.Context(), entry.specHash, http.MethodPost, "/v1/solve", entry.request, true)
	if err != nil {
		if errors.Is(err, errNoBackend) {
			g.writeNoBackend(w)
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusBadGateway, "failover failed: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	env, err := decodeEnvelope(resp)
	if err != nil {
		writeError(w, http.StatusBadGateway, "bad backend response: %v", err)
		return
	}
	g.failoversExec.Inc()
	g.log.Warn("job failed over", "job_id", id, "from", entry.backend, "to", backend.ID,
		"upstream_id", env.JobID, "spec_hash", entry.specHash)
	// Re-point the stable gateway id at the job's new home; later polls
	// go straight there.
	g.jobs.put(id, &jobEntry{backend: backend.ID, upstream: env.JobID,
		specHash: entry.specHash, request: entry.request})
	env.JobID = id
	writeJSON(w, resp.StatusCode, env)
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := g.resolveJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	owner := g.backends[entry.backend]
	resp, err := g.forwardTo(r.Context(), owner, http.MethodPost, "/v1/jobs/"+entry.upstream+"/cancel", nil, true)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusBadGateway, "backend unreachable: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	env, err := decodeEnvelope(resp)
	if err != nil {
		writeError(w, http.StatusBadGateway, "bad backend response: %v", err)
		return
	}
	env.JobID = id
	writeJSON(w, resp.StatusCode, env)
}

// handleJobEvents proxies the owner's SSE stream byte-for-byte,
// flushing each chunk so per-iteration progress stays live through the
// extra hop. If the owner dies mid-stream the stream ends cleanly (a
// terminating comment, then EOF); the client's reconnect resolves
// against the post-failover mapping.
func (g *Gateway) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := g.resolveJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	owner := g.backends[entry.backend]
	resp, err := g.upstreamDo(r.Context(), http.MethodGet, owner.URL()+"/v1/jobs/"+entry.upstream+"/events", nil)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "backend unreachable: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		copyResponse(w, resp)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && r.Context().Err() == nil {
				// Upstream died mid-stream; tell the client before EOF.
				_, _ = fmt.Fprint(w, ": upstream lost; reconnect\n\n")
				_ = rc.Flush()
			}
			return
		}
	}
}

// listEnvelope mirrors the service's jobsResponse summaries.
type listEnvelope struct {
	Jobs   []json.RawMessage `json:"jobs"`
	Total  int               `json:"total"`
	Offset int               `json:"offset"`
	Limit  int               `json:"limit"`
}

// handleJobs fans the listing out to every live backend and merges the
// pages in backend order, prefixing each job id. Offset/limit forward
// per backend, so a page is "up to limit jobs from each backend" — an
// approximation documented in the README; exact global pagination
// would need a cluster-wide sequence the backends don't share.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	query := ""
	if r.URL.RawQuery != "" {
		query = "?" + r.URL.RawQuery
	}
	type result struct {
		id   string
		env  listEnvelope
		err  error
		code int
		body []byte
	}
	members := g.ring.Members()
	results := make([]result, len(members))
	var wg sync.WaitGroup
	for i, bid := range members {
		b := g.backends[bid]
		if !b.Up() {
			results[i] = result{id: bid, err: errNoBackend}
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			res := result{id: b.ID}
			resp, err := g.forwardTo(r.Context(), b, http.MethodGet, "/v1/jobs"+query, nil, true)
			if err != nil {
				res.err = err
			} else {
				defer drainBody(resp)
				res.code = resp.StatusCode
				res.body, _ = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
				if resp.StatusCode == http.StatusOK {
					res.err = json.Unmarshal(res.body, &res.env)
				}
			}
			results[i] = res
		}(i, b)
	}
	wg.Wait()

	merged := listEnvelope{Jobs: []json.RawMessage{}}
	for _, res := range results {
		if res.err != nil {
			continue // dead backends contribute nothing to the listing
		}
		if res.code != http.StatusOK {
			// A backend rejected the query (bad state/limit): its answer is
			// authoritative for the whole request.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.code)
			_, _ = w.Write(res.body)
			return
		}
		for _, rawJob := range res.env.Jobs {
			var job map[string]json.RawMessage
			if err := json.Unmarshal(rawJob, &job); err != nil {
				continue
			}
			var upstream string
			_ = json.Unmarshal(job["job_id"], &upstream)
			rewritten, err := json.Marshal(gatewayJobID(res.id, upstream))
			if err == nil {
				job["job_id"] = rewritten
			}
			out, err := json.Marshal(job)
			if err == nil {
				merged.Jobs = append(merged.Jobs, out)
			}
		}
		merged.Total += res.env.Total
		merged.Offset = res.env.Offset
		merged.Limit = res.env.Limit
	}
	writeJSON(w, http.StatusOK, merged)
}

func (g *Gateway) handleProblems(w http.ResponseWriter, r *http.Request) {
	for _, id := range g.ring.Members() {
		b := g.backends[id]
		if !b.Up() {
			continue
		}
		resp, err := g.forwardTo(r.Context(), b, http.MethodGet, "/v1/problems", nil, true)
		if err != nil {
			continue
		}
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	g.writeNoBackend(w)
}

// handleHealth reports the gateway's own liveness plus the per-backend
// view its checker holds. Always 200: a gateway with zero live
// backends is still alive, just degraded (state says so).
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	type backendView struct {
		Up        bool   `json:"up"`
		State     string `json:"state"`
		Queued    int    `json:"queued"`
		Executing int    `json:"executing"`
	}
	views := map[string]backendView{}
	up := 0
	for id, b := range g.backends {
		state, queued, executing := b.Stats()
		v := backendView{Up: b.Up(), State: state, Queued: queued, Executing: executing}
		if v.Up {
			up++
		}
		views[id] = v
	}
	state := "ok"
	switch {
	case up == 0:
		state = "down"
	case up < len(g.backends):
		state = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"state":    state,
		"backends": views,
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = g.reg.WriteText(w)
}
