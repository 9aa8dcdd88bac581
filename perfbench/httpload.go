package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rasengan/internal/core"
	"rasengan/internal/metrics"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// clients is the closed-loop client count of the service workloads: each
// client sends its next request only after the previous one completes.
const clients = 2

// envelope is the part of a POST /v1/solve response the benchmark reads.
type envelope struct {
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// newHTTPClient returns the benchmark's client of the gateway: one
// connection per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   2 * time.Minute,
	}
}

// callResult is one completed POST /v1/solve.
type callResult struct {
	code    int
	env     envelope
	latency time.Duration
	err     error
}

// postSolve sends one solve request through the gateway. With tr set the
// call is the root span of the request's trace.
func postSolve(c *http.Client, url string, body []byte, tr *tracer, track int32, key string) callResult {
	span := obs.NoParent
	if tr != nil {
		span = tr.rec.Start("client", track, obs.NoParent)
		defer tr.rec.End(span)
	}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return callResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(headerSpan, strconv.Itoa(int(span)))
		req.Header.Set(headerKey, key)
	}
	resp, err := c.Do(req)
	if err != nil {
		return callResult{err: err, latency: time.Since(start)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return callResult{code: resp.StatusCode, err: err, latency: lat}
	}
	r := callResult{code: resp.StatusCode, latency: lat}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &r.env); err != nil {
			r.err = fmt.Errorf("decode response: %w", err)
		}
	}
	return r
}

// classify maps a call to an outcome: 429 and 503 are refusals; any other
// non-200, a transport error, or a 200 without a finished result fails.
func classify(r callResult) (outcome, string) {
	switch {
	case r.err != nil:
		return failed, "transport: " + r.err.Error()
	case r.code == http.StatusTooManyRequests || r.code == http.StatusServiceUnavailable:
		return refused, "refused: HTTP " + strconv.Itoa(r.code)
	case r.code != http.StatusOK:
		return failed, "HTTP " + strconv.Itoa(r.code)
	case r.env.Status != "done" || len(r.env.Result) == 0:
		return failed, "job not done: " + r.env.Status + " " + r.env.Error
	}
	return succeeded, ""
}

// closedLoop runs `clients` goroutines that each take the next input
// index and call do with it, until the inputs run out or the deadline
// passes. It returns the wall time from the first send to the last
// completion.
func closedLoop(n int, deadline time.Time, do func(client, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// httpPass is one measured pass of a service workload.
type httpPass struct {
	measured
	delta counters // the program's own counters over the pass
	rssMB float64  // peak RSS at the end of the pass, before any check
}

// runHTTPPass drives the topology with w's requests in w's order until
// the deadline, from `clients` closed-loop clients. Every request is
// accounted in t; each successful response goes to w.observe, and a
// response it finds wrong counts as failed.
func runHTTPPass(top *topology, w serviceWorkload, d time.Duration, tr *tracer, t *tally) *httpPass {
	bodies, keys, order := w.inputs()
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var tracks [clients]int32
	if tr != nil {
		tr.mark()
		for i := range tracks {
			tracks[i] = tr.rec.Track(fmt.Sprintf("client-%d", i))
		}
	}
	var lat [clients][]float64
	before := top.counters()
	elapsed := closedLoop(len(order), time.Now().Add(d), func(client, i int) {
		s := order[i]
		r := postSolve(c, top.gwURL, bodies[s], tr, tracks[client], keys[s])
		o, why := classify(r)
		if o == succeeded {
			if why = w.observe(s, &r.env); why != "" {
				o = failed
			}
		}
		t.record(o, why)
		if o == succeeded {
			lat[client] = append(lat[client], ms(r.latency))
		}
	})
	p := &httpPass{measured: measured{elapsed: elapsed}, delta: top.counters().sub(before), rssMB: peakRSSMB()}
	for _, l := range lat {
		p.lat = append(p.lat, l...)
	}
	return p
}

// withTracedTransport runs fn with the gateway's upstream transport
// (http.DefaultTransport) wrapped to carry trace links.
func withTracedTransport(fn func()) {
	orig := http.DefaultTransport
	http.DefaultTransport = linkTransport{next: orig}
	defer func() { http.DefaultTransport = orig }()
	fn()
}

// referencePayload solves spec in process with the options the service
// resolves for it and returns the wire payload the service must send.
func referencePayload(s solveSpec) ([]byte, error) {
	p, err := s.build()
	if err != nil {
		return nil, err
	}
	res, err := core.Solve(context.Background(), p, core.Options{Seed: s.Seed, MaxIter: s.MaxIter})
	if err != nil {
		return nil, fmt.Errorf("reference solve %s: %w", s.key(), err)
	}
	return service.MarshalResultPayload(p, res)
}

// argOf returns the payload's ARG against the instance's exact optimum.
func argOf(payload []byte, opt float64) (float64, error) {
	var v struct {
		Expectation       float64 `json:"expectation"`
		InConstraintsRate float64 `json:"in_constraints_rate"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return 0, err
	}
	if !feasible(v.InConstraintsRate) {
		return 0, fmt.Errorf("in_constraints_rate %v, want 1", v.InConstraintsRate)
	}
	arg := metrics.ARG(opt, v.Expectation)
	if math.IsNaN(arg) || math.IsInf(arg, 0) {
		return 0, fmt.Errorf("ARG %v not finite", arg)
	}
	return arg, nil
}

// feasible reports whether an in-constraints rate is 1 up to the rounding
// of summing the output distribution's probabilities.
func feasible(rate float64) bool { return math.Abs(rate-1) <= 1e-9 }

// optimum memoizes the exact optimum per instance.
type optimum map[string]float64

func (o optimum) of(s solveSpec) (float64, error) {
	name := s.problemName()
	if v, ok := o[name]; ok {
		return v, nil
	}
	p, err := s.build()
	if err != nil {
		return 0, err
	}
	ref, err := problems.ExactReference(p)
	if err != nil {
		return 0, err
	}
	o[name] = ref.Opt
	return ref.Opt, nil
}

// sendAll posts every body through the gateway from the closed-loop
// clients and fails on the first request that does not succeed.
func sendAll(top *topology, bodies [][]byte) error {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	why := make([]string, len(bodies))
	closedLoop(len(bodies), time.Now().Add(time.Minute), func(_, i int) {
		if o, reason := classify(postSolve(c, top.gwURL, bodies[i], nil, 0, "")); o != succeeded {
			why[i] = reason
		}
	})
	for i, w := range why {
		if w != "" {
			return fmt.Errorf("request %d: %s", i, w)
		}
	}
	return nil
}
