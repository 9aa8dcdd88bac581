package verify

import (
	"bytes"
	"context"
	"fmt"

	"rasengan/internal/bitvec"
	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/service"
)

// noisyShots is the per-segment shot budget of the noisy solves.
const noisyShots = 256

// noisyCase is one fixed noisy-device solve of the noisy_engine_identity
// rung.
type noisyCase struct {
	p   *problems.Problem
	dev *device.Device
	// opsPerSegment overrides the device's segmentation when nonzero.
	opsPerSegment int
}

// noisyCases are small benchmark instances on the Quebec model, plus one on
// a synthetic high-rate model (stressDevice) so trajectories run through
// the compiled engine's derived spaces, not only the init closure. The
// Quebec model's depth budget holds one operator per segment, so a
// trajectory moved by an error is measured at once; the stress case runs
// two operators per segment so transitions also run inside derived spaces.
func noisyCases() []noisyCase {
	q := device.Quebec()
	return []noisyCase{
		{problems.FLP(1, 0), q, 0},
		{problems.KPP(1, 0), q, 0},
		{problems.SCP(1, 0), q, 0},
		{problems.FLP(2, 0), q, 0},
		{problems.FLP(2, 0), stressDevice(), 2},
	}
}

// stressDevice is the Quebec model with error rates raised until Pauli X/Y
// errors and both damping jumps strike every few operators.
func stressDevice() *device.Device {
	d := device.Quebec()
	d.Name = "stress"
	d.Noise = quantum.NoiseModel{
		OneQubitDepol:    0.01,
		TwoQubitDepol:    0.05,
		AmplitudeDamping: 0.02,
		PhaseDamping:     0.02,
		ReadoutError:     0.03,
	}
	return d
}

// runNoisyCase runs the noisy_engine_identity rung on one noisy case: the
// compiled engine's payload must equal the map engine's byte for byte, and
// a repeat solve must reproduce it. With fault injection on, the map
// engine's most probable outcome is perturbed by faultEpsilon before it is
// serialized, which a healthy rung must flag.
func (cr *caseRunner) runNoisyCase(nc noisyCase) {
	p := cr.tc.p
	opts := core.Options{MaxIter: cr.cfg.SolveIters, Seed: 1}
	opts.Exec.Device = nc.dev
	opts.Exec.Shots = noisyShots
	opts.Exec.OpsPerSegment = nc.opsPerSegment
	mo := opts
	mo.Exec.ForceMapEngine = true
	resM, errM := core.Solve(context.Background(), p, mo)
	var payM []byte
	if errM == nil {
		if cr.cfg.InjectAmplitudeFault {
			perturbTopOutcome(resM.Distribution)
			cr.faultInjected = true
		}
		payM, errM = service.MarshalResultPayload(p, resM)
	}
	payC, errC := solvePayload(p, opts)
	payR, errR := solvePayload(p, opts)
	if errM != nil || errC != nil || errR != nil {
		cr.checkf("noisy_engine_identity", false, 0, "noisy solve failed: map %v / compiled %v / repeat %v", errM, errC, errR)
		return
	}
	cr.checkf("noisy_engine_identity", bytes.Equal(payM, payC) && bytes.Equal(payC, payR), 0,
		"on %s: map and compiled payloads equal %v, repeat reproduces %v",
		nc.dev.Name, bytes.Equal(payM, payC), bytes.Equal(payC, payR))
}

// perturbTopOutcome adds faultEpsilon to the probability of the most
// probable outcome (the lowest state on ties).
func perturbTopOutcome(d map[bitvec.Vec]float64) {
	var top bitvec.Vec
	found := false
	for x, v := range d {
		if !found || v > d[top] || (v == d[top] && x.Compare(top) < 0) {
			top, found = x, true
		}
	}
	if found {
		d[top] += faultEpsilon
	}
}

// name labels the case in the report.
func (nc noisyCase) name() string {
	return fmt.Sprintf("noisy/%s@%s", nc.p.Name, nc.dev.Name)
}
