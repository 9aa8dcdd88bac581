package main

import (
	"bytes"
	"fmt"
	"sync"
)

// coldCheckSample is how many cold-exact responses per pass are compared
// byte for byte with an in-process reference solve.
const coldCheckSample = 12

// coldWorkload is cold-exact: every request a distinct exact spec, so
// every request misses the cache and runs a full journaled solve.
type coldWorkload struct {
	specs  []solveSpec
	bodies [][]byte
	keys   []string
	order  []int
	warmup [][]byte

	mu  sync.Mutex
	got []coldResult // successful responses of the current pass
}

type coldResult struct {
	spec   int
	cached bool
	result []byte
}

func newColdWorkload(seed int64, seconds int) *coldWorkload {
	// More inputs than the fastest plausible run can send.
	n := 1000 * seconds
	w := &coldWorkload{specs: coldInputs(seed, n)}
	for i, s := range w.specs {
		w.bodies = append(w.bodies, s.body())
		w.keys = append(w.keys, s.key())
		w.order = append(w.order, i)
	}
	for _, s := range warmupInputs() {
		w.warmup = append(w.warmup, s.body())
	}
	return w
}

// setup opens the topology and sends the warm-up solves.
func (w *coldWorkload) setup(dataDir string, tr *tracer) (*topology, error) {
	top, err := startTopology(dataDir, tr)
	if err != nil {
		return nil, err
	}
	if err := sendAll(top, w.warmup); err != nil {
		top.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return top, nil
}

func (w *coldWorkload) inputs() (bodies [][]byte, keys []string, order []int) {
	return w.bodies, w.keys, w.order
}

// observe keeps the response for check, which does the costly checks
// after the measured window.
func (w *coldWorkload) observe(spec int, env *envelope) string {
	w.mu.Lock()
	w.got = append(w.got, coldResult{spec: spec, cached: env.Cached, result: env.Result})
	w.mu.Unlock()
	return ""
}

// check verifies the pass's responses: none may come from the cache, each
// must be feasible with a finite ARG, and a seeded sample must equal an
// in-process reference payload byte for byte. It returns every ARG.
func (w *coldWorkload) check(t *tally, opt optimum, seed int64) ([]float64, error) {
	got := w.got
	w.got = nil
	var args []float64
	for _, g := range got {
		s := w.specs[g.spec]
		if g.cached {
			t.reject("cold request answered from cache: " + s.key())
			continue
		}
		eopt, err := opt.of(s)
		if err != nil {
			return nil, err
		}
		arg, err := argOf(g.result, eopt)
		if err != nil {
			t.reject(s.key() + ": " + err.Error())
			continue
		}
		args = append(args, arg)
	}
	rng := workloadRNG(seed, "cold-exact/check")
	for k := 0; k < coldCheckSample && len(got) > 0; k++ {
		j := rng.Intn(len(got))
		g := got[j]
		got = append(got[:j], got[j+1:]...)
		want, err := referencePayload(w.specs[g.spec])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, g.result) {
			t.reject("payload differs from reference: " + w.specs[g.spec].key())
		}
	}
	return args, nil
}
