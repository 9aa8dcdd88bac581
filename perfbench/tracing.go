package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// The traced pass records one span per layer boundary, from the
// benchmark's own wrappers around the program's public entry points:
//
//	client   — the benchmark's HTTP call            (root)
//	gateway  — cluster.Gateway.Handler()            (child of client)
//	service  — service.Server.Handler()             (child of gateway)
//	queue    — service handler entry → Solve start  (child of service)
//	solve    — the service.Config.Solve hook        (child of service)
//
// Spans of one request are linked through two headers: the client sends
// its span id and the solve key to the gateway, the gateway wrapper puts
// them in the request context, and a wrapper around the gateway's
// upstream transport copies them onto the request to the backend. The
// Solve hook finds its service span by solve key (problem name + seed),
// which is unique per cold-exact request. Spans live in memory and are
// written once, at the end, as Chrome trace-event JSON.

const (
	headerSpan = "X-Perfbench-Span"
	headerKey  = "X-Perfbench-Key"
)

type traceCtxKey struct{}

// traceLink is what the gateway wrapper passes to its upstream calls.
type traceLink struct {
	span obs.SpanID
	key  string
}

// tracer is the in-memory span store of one traced pass.
type tracer struct {
	rec *obs.Recorder

	from int // spans before this index belong to set-up

	mu        sync.Mutex
	pending   map[string]pendingSolve // solve key → its service span
	solves    []solveSample
	respBytes []float64 // service response body sizes
}

type pendingSolve struct {
	span  obs.SpanID
	start time.Duration
}

// solveSample is what one traced solve contributes to the core metrics.
type solveSample struct {
	dur        time.Duration
	stages     map[string]float64 // Result.Latency.Stages, ms
	evals      int
	iterations int
	fallback   bool
	allocMB    float64
}

func newTracer() *tracer {
	return &tracer{rec: obs.NewRecorder(), pending: map[string]pendingSolve{}}
}

// now reads the tracer's clock; 0 on a nil tracer.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return t.rec.Now()
}

// mark starts the measured window: spans recorded so far, and the solves
// and responses of set-up, are left out of the layer metrics.
func (t *tracer) mark() {
	t.from = t.rec.Len()
	t.mu.Lock()
	t.solves, t.respBytes = nil, nil
	t.mu.Unlock()
}

func parseSpanID(s string) obs.SpanID {
	id, err := strconv.Atoi(s)
	if err != nil {
		return obs.NoParent
	}
	return obs.SpanID(id)
}

// wrapGateway records a gateway span per request and hands its id to the
// upstream transport through the request context.
func (t *tracer) wrapGateway(h http.Handler) http.Handler {
	track := t.rec.Track("gateway")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.rec.Start("gateway", track, parseSpanID(r.Header.Get(headerSpan)))
		ctx := context.WithValue(r.Context(), traceCtxKey{}, traceLink{span: id, key: r.Header.Get(headerKey)})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.rec.End(id)
	})
}

// linkTransport copies the gateway span id and solve key from the
// request context onto the upstream request.
type linkTransport struct{ next http.RoundTripper }

func (lt linkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	link, ok := req.Context().Value(traceCtxKey{}).(traceLink)
	if !ok {
		return lt.next.RoundTrip(req)
	}
	out := req.Clone(req.Context())
	out.Header.Set(headerSpan, strconv.Itoa(int(link.span)))
	out.Header.Set(headerKey, link.key)
	return lt.next.RoundTrip(out)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// wrapService records a service span per request and registers it as
// the parent of the solve the request starts, if any.
func (t *tracer) wrapService(node string, h http.Handler) http.Handler {
	track := t.rec.Track(node)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.rec.Now()
		id := t.rec.Start("service", track, parseSpanID(r.Header.Get(headerSpan)))
		key := r.Header.Get(headerKey)
		if key != "" {
			t.mu.Lock()
			t.pending[key] = pendingSolve{span: id, start: start}
			t.mu.Unlock()
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.rec.End(id)
		t.mu.Lock()
		delete(t.pending, key) // a cache hit never reaches the Solve hook
		t.respBytes = append(t.respBytes, float64(cw.n))
		t.mu.Unlock()
	})
}

// solveHook wraps core.Solve as a service.Config.Solve hook: it records
// the queue-wait and solve spans under the request's service span.
func (t *tracer) solveHook(node string) service.SolveFunc {
	track := t.rec.Track(node + "/executor")
	return func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
		key := solveKey(p.Name, opts.Seed)
		t.mu.Lock()
		parent, ok := t.pending[key]
		delete(t.pending, key)
		t.mu.Unlock()
		if !ok {
			parent.span = obs.NoParent
		}
		begin := t.rec.Now()
		if ok {
			t.rec.Record("queue", track, parent.span, parent.start, begin)
		}
		id := t.rec.Start("solve", track, parent.span)
		res, err := core.Solve(ctx, p, opts)
		t.rec.End(id)
		if err == nil {
			t.addSolve(solveSample{
				dur:        t.rec.Now() - begin,
				stages:     res.Latency.Stages,
				evals:      res.Evals,
				iterations: res.Iterations,
				fallback:   mapEngineUsed(opts.Telemetry.Spans.Spans()),
			})
		}
		return res, err
	}
}

func (t *tracer) addSolve(s solveSample) {
	t.mu.Lock()
	t.solves = append(t.solves, s)
	t.mu.Unlock()
}

// mapEngineUsed reports whether any segment of a solve's spans ran on the
// map engine, i.e. the executor left (or never entered) the compiled one.
func mapEngineUsed(spans []obs.Span) bool {
	for _, s := range spans {
		if s.Name != obs.StageSegment {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == obs.AttrEngine && a.Val == core.EngineMap {
				return true
			}
		}
	}
	return false
}

// layerTimes holds the per-request layer times of a traced pass.
type layerTimes struct {
	gatewaySelf []float64 // ms
	serviceSelf []float64
	queueWait   []float64
}

// layers derives per-request layer times from the recorded spans: each
// layer's self time is its span's duration minus the part its child
// spans cover.
func (t *tracer) layers() layerTimes {
	spans := t.rec.Spans()
	self := selfTimes(spans)
	// Queue wait is zero for requests that never reached a solve (hits).
	waits := map[obs.SpanID]time.Duration{}
	for _, s := range spans {
		if s.Name == "queue" {
			waits[s.Parent] = s.Duration()
		}
	}
	var lt layerTimes
	for i, s := range spans {
		if i < t.from || s.End < 0 {
			continue
		}
		switch s.Name {
		case "gateway":
			lt.gatewaySelf = append(lt.gatewaySelf, ms(self[i]))
		case "service":
			lt.serviceSelf = append(lt.serviceSelf, ms(self[i]))
			lt.queueWait = append(lt.queueWait, ms(waits[obs.SpanID(i)]))
		}
	}
	return lt
}

// coreMetrics summarizes the traced solves: per-solve medians of each
// stage, the basis maximum, exact counts and engine fallback share.
func coreMetrics(solves []solveSample) map[string]float64 {
	out := map[string]float64{}
	if len(solves) == 0 {
		return out
	}
	stage := func(name string) []float64 {
		xs := make([]float64, len(solves))
		for i, s := range solves {
			xs[i] = s.stages[name]
		}
		return xs
	}
	var dur, evals, iters, alloc []float64
	fallbacks := 0
	for _, s := range solves {
		dur = append(dur, ms(s.dur))
		evals = append(evals, float64(s.evals))
		iters = append(iters, float64(s.iterations))
		alloc = append(alloc, s.allocMB)
		if s.fallback {
			fallbacks++
		}
	}
	out["core.solve_ms"] = median(dur)
	basis := stage(obs.StageBasis)
	out["core.basis_ms_p50"] = median(basis)
	out["core.basis_ms_max"] = maxOf(basis)
	for _, st := range []string{obs.StageHamiltonian, obs.StageCircuit, obs.StageIteration,
		obs.StageSegment, obs.StageSample, obs.StageFinalEval} {
		out["core."+st+"_ms"] = median(stage(st))
	}
	out["core.evals_per_solve"] = mean(evals)
	out["core.iterations_per_solve"] = mean(iters)
	out["core.engine_fallback_share"] = float64(fallbacks) / float64(len(solves))
	out["core.alloc_mb_per_solve"] = median(alloc)
	return out
}
