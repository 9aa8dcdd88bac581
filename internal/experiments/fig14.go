package experiments

import (
	"fmt"
	"strings"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// Fig14aPoint is the ARG distribution at one Pauli error rate.
type Fig14aPoint struct {
	ErrorRate float64
	ARG       metrics.Summary
	FracBelow float64 // fraction of ARGs ≤ 0.025 (the paper's claim)
	Failures  int
}

// Fig14bPoint is the ARG at one amplitude damping probability with fixed
// background noise.
type Fig14bPoint struct {
	Gamma    float64
	ARG      metrics.Summary
	Failures int
}

// Fig14Result reproduces Figure 14: sensitivity to depolarizing noise
// (a) and amplitude damping (b).
type Fig14Result struct {
	PauliSweep   []Fig14aPoint
	DampingSweep []Fig14bPoint
}

// fig14Device builds a synthetic device with the requested channel rates
// on the Eagle topology.
func fig14Device(oneQ, twoQ, damping, dephasing float64) *device.Device {
	return &device.Device{
		Name:     fmt.Sprintf("pauli-%g", twoQ),
		Coupling: transpile.HeavyHex(7, 15),
		Noise: quantum.NoiseModel{
			OneQubitDepol:    oneQ,
			TwoQubitDepol:    twoQ,
			AmplitudeDamping: damping,
			PhaseDamping:     dephasing,
		},
		Durations:          transpile.DefaultDurations(),
		ClassicalPerEvalMS: 2.2,
	}
}

// fig14Cases samples instances across the benchmark families (the paper
// draws 2000; the scaled default draws Cases per family at scale 1).
func fig14Cases(cfg Config) []*problems.Problem {
	var out []*problems.Problem
	for _, fam := range problems.Families {
		for c := 0; c < cfg.Cases; c++ {
			b := problems.Benchmark{Family: fam, Scale: 1}
			out = append(out, b.Generate(c))
		}
	}
	return out
}

// Fig14 runs both noise sweeps.
func Fig14(cfg Config) (*Fig14Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shots <= 0 {
		cfg.Shots = 512
	}
	cases := fig14Cases(cfg)
	out := &Fig14Result{}

	// (a) Pauli error sweep around the 10^-3 scale of IBM calibrations.
	for _, rate := range []float64{1e-4, 3e-4, 5e-4, 1e-3} {
		args, failures, err := fig14Sweep(cfg, cases, fig14Device(rate/10, rate, 0, 0), 0)
		if err != nil {
			return nil, err
		}
		pt := Fig14aPoint{ErrorRate: rate, Failures: failures}
		pt.ARG = metrics.Summarize(args)
		pt.FracBelow = metrics.FractionBelow(args, 0.025)
		out.PauliSweep = append(out.PauliSweep, pt)
	}

	// (b) Amplitude damping sweep with the paper's fixed background
	// (1q 0.035%, 2q 0.875% depolarizing + matching dephasing). Failures
	// are runs killed by infeasible intermediate states — the paper's
	// reported failure mode at γ ≥ 2%.
	for _, gamma := range []float64{0, 0.005, 0.01, 0.015, 0.02} {
		args, failures, err := fig14Sweep(cfg, cases, fig14Device(0.00035, 0.00875, gamma, 0.0005), 1000)
		if err != nil {
			return nil, err
		}
		pt := Fig14bPoint{Gamma: gamma, Failures: failures}
		pt.ARG = metrics.Summarize(args)
		out.DampingSweep = append(out.DampingSweep, pt)
	}
	return out, nil
}

// fig14Sweep solves every case against one device across the worker pool.
// Each case owns a seed and a result slot, so the returned ARGs are in
// case order and identical for any worker count.
func fig14Sweep(cfg Config, cases []*problems.Problem, dev *device.Device, seedOffset int64) (args []float64, failures int, err error) {
	type caseOut struct {
		arg    float64
		ok     bool
		failed bool
		err    error
	}
	outs := make([]caseOut, len(cases))
	cfg.forEachParallel(len(cases), func(i int) {
		p := cases[i]
		ref, err := problems.ExactReference(p)
		if err != nil {
			outs[i].err = err
			return
		}
		res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{
			MaxIter:   cfg.MaxIter,
			Seed:      cfg.Seed + seedOffset + int64(i),
			Exec:      core.ExecOptions{Shots: cfg.Shots, Device: dev, Trajectories: cfg.Trajectories},
			Telemetry: cfg.telemetry(),
		}))
		if err != nil {
			outs[i].failed = true
			return
		}
		outs[i] = caseOut{arg: metrics.ARG(ref.Opt, res.Expectation), ok: true}
	})
	for _, o := range outs {
		switch {
		case o.err != nil:
			return nil, 0, o.err
		case o.failed:
			failures++
		case o.ok:
			args = append(args, o.arg)
		}
	}
	return args, failures, nil
}

// Render prints both panels.
func (f *Fig14Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 14(a): ARG distribution vs Pauli error rate\n")
	header := []string{"Error rate", "Mean ARG", "Median", "P99", "≤0.025", "Failures"}
	var rows [][]string
	for _, p := range f.PauliSweep {
		rows = append(rows, []string{
			fmt.Sprintf("%g", p.ErrorRate), fmtF(p.ARG.Mean), fmtF(p.ARG.Median),
			fmtF(p.ARG.P99), fmt.Sprintf("%.0f%%", 100*p.FracBelow), fmt.Sprint(p.Failures),
		})
	}
	sb.WriteString(renderTable(header, rows))

	sb.WriteString("\nFigure 14(b): ARG vs amplitude damping (fixed background noise)\n")
	header = []string{"Damping γ", "Mean ARG", "Median", "Failures"}
	rows = nil
	for _, p := range f.DampingSweep {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", 100*p.Gamma), fmtF(p.ARG.Mean), fmtF(p.ARG.Median), fmt.Sprint(p.Failures),
		})
	}
	sb.WriteString(renderTable(header, rows))
	return sb.String()
}
