package main

import (
	"bytes"
	"fmt"
	"sync"
)

// hotWorkload is hot-cache: requests drawn uniformly from a working set
// that set-up has already solved, so every measured request is a cache hit.
type hotWorkload struct {
	set    []solveSpec
	bodies [][]byte
	keys   []string
	order  []int
	// refs[s] is the in-process reference payload of set entry s and
	// refARG[s] its ARG; every response for s must equal refs[s].
	refs   [][]byte
	refARG []float64

	mu   sync.Mutex
	args []float64 // ARG of each right response since the last check
}

// newHotWorkload generates the inputs and solves every set entry in
// process, untimed, for the references.
func newHotWorkload(seed int64, seconds int) (*hotWorkload, error) {
	// More inputs than the fastest plausible run can send.
	set, order := hotInputs(seed, 20000*seconds)
	w := &hotWorkload{set: set, order: order}
	opt := optimum{}
	for _, s := range set {
		ref, err := referencePayload(s)
		if err != nil {
			return nil, err
		}
		eopt, err := opt.of(s)
		if err != nil {
			return nil, err
		}
		arg, err := argOf(ref, eopt)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s.key(), err)
		}
		w.bodies = append(w.bodies, s.body())
		w.keys = append(w.keys, s.key())
		w.refs = append(w.refs, ref)
		w.refARG = append(w.refARG, arg)
	}
	return w, nil
}

// setup opens the topology and solves the working set through the
// gateway, which fills each owner's result cache.
func (w *hotWorkload) setup(dataDir string, tr *tracer) (*topology, error) {
	top, err := startTopology(dataDir, tr)
	if err != nil {
		return nil, err
	}
	if err := sendAll(top, w.bodies); err != nil {
		top.close()
		return nil, fmt.Errorf("fill cache: %w", err)
	}
	return top, nil
}

func (w *hotWorkload) inputs() (bodies [][]byte, keys []string, order []int) {
	return w.bodies, w.keys, w.order
}

// observe compares the payload with the entry's reference.
func (w *hotWorkload) observe(s int, env *envelope) string {
	if !bytes.Equal(env.Result, w.refs[s]) {
		return "payload differs from reference: " + w.keys[s]
	}
	w.mu.Lock()
	w.args = append(w.args, w.refARG[s])
	w.mu.Unlock()
	return ""
}

// check returns the ARG of every right response since the last check;
// observe has already compared each with its reference.
func (w *hotWorkload) check(*tally, optimum, int64) ([]float64, error) {
	args := w.args
	w.args = nil
	return args, nil
}
