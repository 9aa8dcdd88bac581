package cluster_test

// The multi-node gateway tests from the issue's headline deliverable:
// payload identity across serving nodes, cache affinity, batch
// sharding, failover mid-solve, the no-stash 503 path, SSE continuity
// through the proxy, draining ejection, slow-owner polls, and journal
// replay after a node restart. All in-process, all -race-clean.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rasengan/internal/cluster"
	"rasengan/internal/service"
)

// solveBody wraps a spec into a POST /v1/solve body with a fixed
// deterministic config and a synchronous wait.
func solveBody(spec string, waitMS int) string {
	return fmt.Sprintf(`{"spec":%s,"config":{"seed":7,"max_iter":3,"shots":0},"wait_ms":%d}`, spec, waitMS)
}

// nodeIndex maps a ring owner id ("n3") back to its harness slot.
func nodeIndex(t *testing.T, owner string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(owner, "n%d", &i); err != nil || i < 1 {
		t.Fatalf("unexpected owner id %q", owner)
	}
	return i - 1
}

// TestClusterPayloadIdentity is the core serving-equivalence claim:
// the same spec solved through the gateway and directly on every
// individual backend yields byte-identical result payloads — the
// serving node is unobservable in the answer.
func TestClusterPayloadIdentity(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	for c := 0; c < 4; c++ {
		body := solveBody(specJSON("FLP", 1, c), 30000)
		code, via := tc.solve(body)
		if code != http.StatusOK || via.Status != "done" {
			t.Fatalf("case %d via gateway: code=%d status=%q err=%q", c, code, via.Status, via.Error)
		}
		if len(via.Result) == 0 {
			t.Fatalf("case %d: gateway returned no result", c)
		}
		owner, _ := tc.gw.Ring().Lookup(specHash(t, specJSON("FLP", 1, c)))
		if want := owner + "."; !strings.HasPrefix(via.JobID, want) {
			t.Errorf("case %d: job id %q not prefixed by ring owner %q", c, via.JobID, want)
		}
		for i, node := range tc.nodes {
			code, raw := tc.post(node.ts.URL+"/v1/solve", body)
			var direct solveView
			if err := json.Unmarshal([]byte(raw), &direct); err != nil || code != http.StatusOK {
				t.Fatalf("case %d node %d: code=%d err=%v body=%s", c, i, code, err, raw)
			}
			if !bytes.Equal(direct.Result, via.Result) {
				t.Errorf("case %d: node %d result differs from gateway result\n node: %s\n gate: %s",
					c, i, direct.Result, via.Result)
			}
		}
	}
}

// TestClusterCacheAffinity: resubmitting a spec routes to the same
// backend and hits its result cache — the affinity the hash ring
// exists to provide.
func TestClusterCacheAffinity(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	body := solveBody(specJSON("FLP", 1, 0), 30000)
	_, first := tc.solve(body)
	if first.Status != "done" || first.Cached {
		t.Fatalf("first solve: status=%q cached=%v, want fresh done", first.Status, first.Cached)
	}
	for i := 0; i < 3; i++ {
		_, again := tc.solve(body)
		if !again.Cached {
			t.Fatalf("resubmission %d missed the cache (routed off the owner?)", i)
		}
		if !bytes.Equal(again.Result, first.Result) {
			t.Fatalf("resubmission %d returned a different payload", i)
		}
		if split := strings.SplitN(again.JobID, ".", 2)[0]; split != strings.SplitN(first.JobID, ".", 2)[0] {
			t.Fatalf("resubmission %d served by %s, first by %s", i, split, first.JobID)
		}
	}
}

// TestClusterBatchSharding: a mixed batch is split per ring owner,
// merged back in order, and every item's job id is unique and
// prefixed with that item's ring owner.
func TestClusterBatchSharding(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	const n = 6
	var items []string
	for c := 0; c < n; c++ {
		items = append(items, fmt.Sprintf(`{"spec":%s,"config":{"seed":7,"max_iter":3}}`,
			specJSON("FLP", 1, c)))
	}
	code, raw := tc.post(tc.gwTS.URL+"/v1/solve/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: code=%d body=%s", code, raw)
	}
	var resp struct {
		Items []struct {
			Code   int             `json:"code"`
			JobID  string          `json:"job_id"`
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		} `json:"items"`
	}
	if err := json.Unmarshal([]byte(raw), &resp); err != nil || len(resp.Items) != n {
		t.Fatalf("batch decode: err=%v items=%d body=%s", err, len(resp.Items), raw)
	}
	seen := map[string]bool{}
	owners := map[string]bool{}
	for c, it := range resp.Items {
		// Batch items are enqueue-only: 202 queued (200 only on a cache hit).
		if it.Code != http.StatusOK && it.Code != http.StatusAccepted {
			t.Fatalf("item %d: code=%d status=%q", c, it.Code, it.Status)
		}
		if it.JobID == "" || seen[it.JobID] {
			t.Fatalf("item %d: duplicate or empty job id %q in batch", c, it.JobID)
		}
		seen[it.JobID] = true
		owner, _ := tc.gw.Ring().Lookup(specHash(t, specJSON("FLP", 1, c)))
		if !strings.HasPrefix(it.JobID, owner+".") {
			t.Errorf("item %d: job id %q, want owner prefix %q", c, it.JobID, owner)
		}
		owners[owner] = true
		final := tc.pollUntilDone(it.JobID, 15*time.Second)
		if final.Status != "done" || len(final.Result) == 0 {
			t.Fatalf("item %d (%s): status=%q error=%q", c, it.JobID, final.Status, final.Error)
		}
	}
	if len(owners) < 2 {
		t.Errorf("all %d items landed on one backend; sharding untested (owners=%v)", n, owners)
	}
}

// TestClusterFailoverMidSolve: kill the owner while its solve is
// blocked mid-flight. Polling the stable gateway job id must never
// hang: the gateway re-submits the stashed request to the next ring
// replica and the job completes there with the payload the dead node
// would have produced.
func TestClusterFailoverMidSolve(t *testing.T) {
	block := make(chan struct{})
	tc := newTestCluster(t, 3, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, nil)

	spec := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	code, v := tc.solve(solveBody(spec, 0))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: code=%d status=%q", code, v.Status)
	}
	if !strings.HasPrefix(v.JobID, "n1.") {
		t.Fatalf("job %q not owned by n1", v.JobID)
	}

	tc.kill(0)
	close(block) // replicas solve instantly from here on

	final := tc.pollUntilDone(v.JobID, 15*time.Second)
	if final.Status != "done" || len(final.Result) == 0 {
		t.Fatalf("failover job: status=%q error=%q", final.Status, final.Error)
	}
	if final.JobID != v.JobID {
		t.Fatalf("job id changed across failover: %q → %q", v.JobID, final.JobID)
	}

	// Byte-identity: a surviving node solving the same spec directly
	// produces the same result payload.
	_, raw := tc.post(tc.nodes[1].ts.URL+"/v1/solve", solveBody(spec, 30000))
	var ref solveView
	if err := json.Unmarshal([]byte(raw), &ref); err != nil || ref.Status != "done" {
		t.Fatalf("reference solve: err=%v status=%q", err, ref.Status)
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("failover payload differs from reference\n got: %s\nwant: %s", final.Result, ref.Result)
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, "rasengan_gateway_failovers_total"); got < 1 {
		t.Errorf("rasengan_gateway_failovers_total = %g, want >= 1", got)
	}
}

// TestClusterFailoverNoStash: when the owner is dead and the stash is
// gone (evicted from a 1-entry job map), the poll answers a clean
// retryable 503 with Retry-After — never a hang, never a 200 lie.
func TestClusterFailoverNoStash(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	tc := newTestCluster(t, 2, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, func(c *cluster.Config) { c.JobMapEntries = 1 })

	specA := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	_, a := tc.solve(solveBody(specA, 0))
	specB := specOwnedBy(t, tc.gw, "n2", "FLP", 1)
	_, _ = tc.solve(solveBody(specB, 0)) // evicts A's stash
	tc.kill(0)

	resp, err := tc.client.Get(tc.gwTS.URL + "/v1/jobs/" + a.JobID)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poll of stash-less job on dead owner: code=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After; clients cannot pace retries")
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, "rasengan_gateway_failover_unavailable_total"); got < 1 {
		t.Errorf("rasengan_gateway_failover_unavailable_total = %g, want >= 1", got)
	}
}

// TestClusterSSEContinuity: the event stream proxied through the
// gateway delivers the backend's progress frames and the terminal done
// event, flushed as they happen.
func TestClusterSSEContinuity(t *testing.T) {
	block := make(chan struct{})
	tc := newTestCluster(t, 2, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, nil)

	_, v := tc.solve(solveBody(specJSON("FLP", 1, 0), 0))
	if v.JobID == "" {
		t.Fatal("no job id")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, tc.gwTS.URL+"/v1/jobs/"+v.JobID+"/events", nil)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("open SSE: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE: code=%d content-type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	events := make(chan string, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
	}()

	next := func() string {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("SSE stream ended early")
			}
			return ev
		case <-ctx.Done():
			t.Fatal("no SSE event within the deadline")
		}
		return ""
	}

	// The stub published progress before blocking; the stream must
	// replay the latest record to a late subscriber.
	if ev := next(); ev != "progress" {
		t.Fatalf("first event %q, want progress", ev)
	}
	close(block)
	for {
		if ev := next(); ev == "done" {
			break
		}
	}
}

// TestClusterDrainingEjection: a draining backend probes as
// unavailable, gets ejected after the fail threshold (its keys reroute
// to the survivor, visible in job-id prefixes and the backend_up
// metric), and the gateway health endpoint reports the degradation.
func TestClusterDrainingEjection(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)

	spec := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.nodes[0].srv.Drain(ctx); err != nil {
		t.Fatalf("drain n1: %v", err)
	}
	tc.checkHealth(2) // fail threshold

	if tc.gw.Backend("n1").Up() {
		t.Fatal("n1 still routable after draining past the fail threshold")
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, `rasengan_gateway_backend_up{backend="n1"}`); got != 0 {
		t.Errorf(`backend_up{backend="n1"} = %g, want 0`, got)
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, `rasengan_gateway_backend_up{backend="n2"}`); got != 1 {
		t.Errorf(`backend_up{backend="n2"} = %g, want 1`, got)
	}

	code, v := tc.solve(solveBody(spec, 30000))
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("solve with n1 ejected: code=%d status=%q err=%q", code, v.Status, v.Error)
	}
	if !strings.HasPrefix(v.JobID, "n2.") {
		t.Fatalf("n1-owned spec served by %q with n1 ejected, want n2", v.JobID)
	}

	resp, err := tc.client.Get(tc.gwTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz: code=%d err=%v", resp.StatusCode, err)
	}
	if health.State != "degraded" {
		t.Errorf("gateway state %q with one of two backends ejected, want degraded", health.State)
	}
}

// TestClusterRestartRecovery is the restart drill: a backend with a
// data directory dies mid-solve (listener torn down, journal intact),
// comes back at a new address, replays the journal, and the original
// gateway job id resolves to a payload byte-identical to an
// uninterrupted solo reference. No client-visible state is lost.
func TestClusterRestartRecovery(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	block := make(chan struct{})
	// Released at test end so the killed instance's stranded executor
	// finishes and cleanup Drain doesn't wait out its timeout.
	defer close(block)
	tc := newTestCluster(t, 2, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block), DataDir: dirs[i]}
	}, nil)

	spec := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	_, v := tc.solve(solveBody(spec, 0))
	if !strings.HasPrefix(v.JobID, "n1.") {
		t.Fatalf("job %q not on n1", v.JobID)
	}

	// Kill n1 mid-solve. No polls in between: the journal, not the
	// failover path, must carry this job.
	tc.kill(0)
	if err := tc.nodes[0].srv.Close(); err != nil {
		t.Fatalf("close n1 stores: %v", err)
	}
	tc.restart(0, service.Config{Solve: stubNodeSolve(nil), DataDir: dirs[0]})

	final := tc.pollUntilDone(v.JobID, 15*time.Second)
	if final.Status != "done" || len(final.Result) == 0 {
		t.Fatalf("replayed job: status=%q error=%q", final.Status, final.Error)
	}

	// Solo reference: the same request against a fresh single node that
	// never crashed.
	solo, err := service.Open(service.Config{Solve: stubNodeSolve(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	_, raw := tc.post(soloTS.URL+"/v1/solve", solveBody(spec, 30000))
	var ref solveView
	if err := json.Unmarshal([]byte(raw), &ref); err != nil || ref.Status != "done" {
		t.Fatalf("solo reference: err=%v status=%q", err, ref.Status)
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("replayed payload differs from uninterrupted reference\n got: %s\nwant: %s",
			final.Result, ref.Result)
	}
}

// TestClusterSlowOwnerPoll: with the owner slow to answer job polls and
// the next replica holding the payload in cache, a poll through the
// gateway waits for the owner and returns the owner's own view under the
// original job id. The replica sees no request while the poll is in
// flight, so a slow owner never starts a speculative duplicate solve.
func TestClusterSlowOwnerPoll(t *testing.T) {
	block := make(chan struct{})
	defer close(block)

	// n1: solves blocked, and job GETs delayed at the HTTP layer.
	const ownerDelay = 300 * time.Millisecond
	n1 := service.New(service.Config{Solve: stubNodeSolve(block)})
	defer n1.Close()
	n1Handler := n1.Handler()
	slowN1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			time.Sleep(ownerDelay)
		}
		n1Handler.ServeHTTP(w, r)
	}))
	defer slowN1.Close()

	// n2: fast, unblocked, and counting every request it receives.
	n2 := service.New(service.Config{Solve: stubNodeSolve(nil)})
	defer n2.Close()
	n2Handler := n2.Handler()
	var n2Requests atomic.Int64
	n2TS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n2Requests.Add(1)
		n2Handler.ServeHTTP(w, r)
	}))
	defer n2TS.Close()

	gw, err := cluster.New(cluster.Config{
		Backends: []*cluster.Backend{
			cluster.NewBackend("n1", slowN1.URL),
			cluster.NewBackend("n2", n2TS.URL),
		},
		Seed:           1,
		Retry:          fastRetry(),
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	spec := specOwnedBy(t, gw, "n1", "FLP", 1)
	body := solveBody(spec, 0)

	// Seed n2's cache with the payload directly.
	resp, err := client.Post(n2TS.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBody(spec, 30000)))
	if err != nil {
		t.Fatal(err)
	}
	var seeded solveView
	if err := json.NewDecoder(resp.Body).Decode(&seeded); err != nil || seeded.Status != "done" {
		t.Fatalf("seed n2: err=%v status=%q", err, seeded.Status)
	}
	resp.Body.Close()

	// Submit through the gateway: lands on blocked n1.
	resp, err = client.Post(gwTS.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub solveView
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || !strings.HasPrefix(sub.JobID, "n1.") {
		t.Fatalf("submit: err=%v id=%q", err, sub.JobID)
	}
	resp.Body.Close()

	// Poll: the owner sits on the request for ownerDelay and then answers
	// with its own (still unfinished) view.
	before := n2Requests.Load()
	start := time.Now()
	resp, err = client.Get(gwTS.URL + "/v1/jobs/" + sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var polled solveView
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := n2Requests.Load() - before; got != 0 {
		t.Fatalf("replica n2 received %d requests during the poll, want 0 (speculative duplicate)", got)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("poll: code=%d, want n1's 202 for an unfinished job", resp.StatusCode)
	}
	if polled.JobID != sub.JobID {
		t.Fatalf("poll answered under id %q, want the original %q", polled.JobID, sub.JobID)
	}
	if polled.Status == "done" || len(polled.Result) != 0 {
		t.Fatalf("poll: status=%q with %d result bytes, want n1's unfinished view", polled.Status, len(polled.Result))
	}
	if elapsed < ownerDelay {
		t.Fatalf("poll answered after %v, before the owner's %v delay", elapsed, ownerDelay)
	}
	if got := metricValue(t, client, gwTS.URL, "rasengan_gateway_failovers_total"); got != 0 {
		t.Errorf("rasengan_gateway_failovers_total = %g, want 0 for a slow but live owner", got)
	}
}

// TestClusterNoBackendRejection: when every backend is gone the
// gateway answers a retryable 503 with Retry-After on the solve path —
// the no-backend case is a clean rejection, not an error page or hang.
func TestClusterNoBackendRejection(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	tc.kill(0)
	tc.kill(1)
	tc.checkHealth(2)
	resp, err := tc.client.Post(tc.gwTS.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBody(specJSON("FLP", 1, 0), 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve with no backends: code=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no-backend 503 without Retry-After")
	}
}
