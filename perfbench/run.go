package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rasengan/internal/obs"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer that does no work on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"cluster.gateway_self_ms", "ms"},
	{"cluster.route_max_share", "ratio"},
	{"cluster.retries", "count"},
	{"service.self_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.response_bytes", "bytes"},
	{"store.fsyncs_per_req", "count"},
	{"core.solve_ms", "ms"},
	{"core.basis_ms_p50", "ms"},
	{"core.basis_ms_max", "ms"},
	{"core.hamiltonian_ms", "ms"},
	{"core.circuit_ms", "ms"},
	{"core.iteration_ms", "ms"},
	{"core.segment_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.final_eval_ms", "ms"},
	{"core.evals_per_solve", "count"},
	{"core.iterations_per_solve", "count"},
	{"core.engine_fallback_share", "ratio"},
	{"core.alloc_mb_per_solve", "MB"},
	{"trace_overhead_pct", "%"},
}

// setPerLayer reports every per-layer metric, taking values from vals.
func (r *report) setPerLayer(vals map[string]float64) {
	for _, m := range perLayer {
		r.set(m.name, vals[m.name], m.unit)
	}
}

// overheadPct is how much slower the traced pass ran than the untraced
// one, in percent of the traced throughput.
func overheadPct(untraced, traced float64) float64 {
	return (untraced/traced - 1) * 100
}

// serviceWorkload is a workload driven over HTTP through the gateway.
type serviceWorkload interface {
	// setup opens a fresh topology and brings it to the measured state.
	setup(dataDir string, tr *tracer) (*topology, error)
	// inputs returns the request bodies, their solve keys, and the order
	// in which the measured window sends them.
	inputs() (bodies [][]byte, keys []string, order []int)
	// observe receives each successful response as it arrives and
	// returns why it is wrong, or "" if it is right as far as observe
	// checks.
	observe(spec int, env *envelope) string
	// check verifies the responses observed since the last check,
	// rejecting wrong ones in t, and returns the ARG of each right one.
	check(t *tally, opt optimum, seed int64) ([]float64, error)
}

func runService(cfg config, w serviceWorkload) (*report, error) {
	rep := &report{}
	var t tally
	opt := optimum{}
	dataDir := func(name string) string {
		return filepath.Join(cfg.outDir, fmt.Sprintf("data-%d-%s", os.Getpid(), name))
	}
	d := time.Duration(cfg.seconds) * time.Second

	if !cfg.trace {
		// Each pass sets up a fresh topology and replays the same inputs,
		// so the passes do the same work. The set-ups before the passes
		// are timed and closed.
		var setups []float64
		var passes []measured
		var rss float64
		for r := 0; r < serviceSetups; r++ {
			t0 := time.Now()
			top, err := w.setup(dataDir(fmt.Sprint(r)), nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if r < serviceSetups-subPasses {
				top.close()
				continue
			}
			p := runHTTPPass(top, w, d/subPasses, nil, &t)
			top.close()
			passes, rss = append(passes, p.measured), p.rssMB
		}
		args, err := w.check(&t, opt, cfg.seed)
		if err != nil {
			return nil, err
		}
		rep.endToEnd(passes, passes, args, setups, rss)
		rep.finish(&t)
		return rep, nil
	}

	// Traced run: an untraced and a traced pass of half the time each, on
	// fresh topologies, over the same inputs from the start.
	top, err := w.setup(dataDir("plain"), nil)
	if err != nil {
		return nil, err
	}
	plain := runHTTPPass(top, w, d/2, nil, &t)
	top.close()
	if _, err := w.check(&t, opt, cfg.seed); err != nil {
		return nil, err
	}

	tr := newTracer()
	var traced *httpPass
	withTracedTransport(func() {
		if top, err = w.setup(dataDir("traced"), tr); err != nil {
			return
		}
		traced = runHTTPPass(top, w, d/2, tr, &t)
		top.close()
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.check(&t, opt, cfg.seed); err != nil {
		return nil, err
	}

	vals := coreMetrics(tr.solves)
	lt := tr.layers()
	vals["cluster.gateway_self_ms"] = median(lt.gatewaySelf)
	vals["service.self_ms"] = median(lt.serviceSelf)
	vals["service.queue_wait_ms"] = median(lt.queueWait)
	vals["service.response_bytes"] = mean(tr.respBytes)
	dl := traced.delta
	total := 0.0
	for _, n := range dl.solveRequests {
		total += n
	}
	if total > 0 {
		vals["cluster.route_max_share"] = maxOf(dl.solveRequests) / total
	}
	vals["cluster.retries"] = dl.retries
	if lookups := dl.cacheHits + dl.cacheMisses; lookups > 0 {
		vals["service.cache_hit_ratio"] = dl.cacheHits / lookups
	}
	if dl.accepted > 0 {
		vals["store.fsyncs_per_req"] = dl.fsyncs / dl.accepted
	}
	vals["trace_overhead_pct"] = overheadPct(plain.throughput(), traced.throughput())
	rep.setPerLayer(vals)
	rep.note("untraced pass: %d ops; traced pass: %d ops, %d solves traced",
		len(plain.lat), len(traced.lat), len(tr.solves))
	writeTrace(cfg, tr.rec, rep)
	rep.finish(&t)
	return rep, nil
}

func runNoisy(cfg config) (*report, error) {
	w, err := newNoisyWorkload(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var t tally
	opt := optimum{}
	d := time.Duration(cfg.seconds) * time.Second

	// setup runs and checks one set-up; its payload checks count as
	// one op.
	setup := func() error {
		why, err := w.setup()
		if err != nil {
			return err
		}
		o := succeeded
		if why != "" {
			o = failed
		}
		t.record(o, why)
		return nil
	}

	if !cfg.trace {
		var setups []float64
		for r := 0; r < noisySetups; r++ {
			t0 := time.Now()
			if err := setup(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		p := w.run(d, nil, nil)
		c, err := w.check(p, &t, opt)
		if err != nil {
			return nil, err
		}
		rep.endToEnd([]measured{c.fastest}, c.cycles, c.args, setups, p.rssMB)
		rep.note("payload digest of a cycle: %s", c.digest)
		rep.finish(&t)
		return rep, nil
	}

	if err := setup(); err != nil {
		return nil, err
	}
	plain := w.run(d/2, nil, nil)
	cPlain, err := w.check(plain, &t, opt)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	events := obs.NewEventRing(obs.DefaultEventRingSize)
	traced := w.run(d/2, tr, events)
	cTraced, err := w.check(traced, &t, opt)
	if err != nil {
		return nil, err
	}
	vals := coreMetrics(traced.solves)
	mPlain, mTraced := pool(cPlain.cycles), pool(cTraced.cycles)
	vals["trace_overhead_pct"] = overheadPct(mPlain.throughput(), mTraced.throughput())
	rep.setPerLayer(vals)
	rep.note("untraced pass: %d solves; traced pass: %d solves",
		len(mPlain.lat), len(mTraced.lat))
	rep.note("payload digest of a cycle: %s", cTraced.digest)
	writeTrace(cfg, tr.rec, rep)
	writeEvents(cfg, events, rep)
	rep.finish(&t)
	return rep, nil
}

// writeEvents dumps the flight-recorder events of the traced solves in
// the format `rasengan-inspect -events <file>` reads.
func writeEvents(cfg config, ring *obs.EventRing, r *report) {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.events.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err == nil {
		err = ring.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		r.note("events: not written: %v", err)
		return
	}
	r.note("events: %s (%d events)", path, ring.Len())
}

// sourceDigest identifies the program under test: a hash of every Go
// source file and go.mod under root, skipping hidden directories. The
// benchmark runs in checkouts that are not git repositories, so this
// stands in for the commit id.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the source
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
