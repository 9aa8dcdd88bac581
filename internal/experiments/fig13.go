package experiments

import (
	"fmt"
	"strings"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/problems"
)

// Fig13Point is one segment-count configuration.
type Fig13Point struct {
	Segments   int
	TotalShots int
	QuantumMS  float64
	TotalMS    float64
	Err        error
}

// Fig13Result reproduces Figure 13: total shots and latency of Rasengan
// as the schedule is split into more segments (1024 shots per segment).
type Fig13Result struct {
	Benchmark string
	Points    []Fig13Point
}

// Fig13 forces different segmentations of the same schedule by varying
// operators-per-segment.
func Fig13(cfg Config) (*Fig13Result, error) {
	cfg = cfg.withDefaults()
	p := problems.FLP(2, 0)
	out := &Fig13Result{Benchmark: p.Name}
	dev := device.Quebec()

	basis, err := core.BuildBasis(p, core.BasisOptions{})
	if err != nil {
		return nil, err
	}
	numOps := len(core.BuildSchedule(p, basis, core.ScheduleOptions{}).Ops)
	seen := map[int]bool{}
	for ops := numOps; ops >= 1; ops-- {
		segments := (numOps + ops - 1) / ops
		if seen[segments] {
			continue
		}
		seen[segments] = true
		res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{
			MaxIter: cfg.MaxIter,
			Seed:    cfg.Seed,
			Exec: core.ExecOptions{
				Shots:         1024,
				OpsPerSegment: ops,
				Device:        dev,
				Trajectories:  cfg.Trajectories,
			},
			Telemetry: cfg.telemetry(),
		}))
		pt := Fig13Point{Segments: segments}
		if err != nil {
			pt.Err = err
		} else {
			pt.Segments = res.NumSegments
			pt.TotalShots = res.NumSegments * 1024
			pt.QuantumMS = res.Latency.QuantumMS
			pt.TotalMS = res.Latency.TotalMS()
		}
		out.Points = append(out.Points, pt)
	}
	// Construction order (ops-per-segment descending) is already
	// increasing in segment count.
	return out, nil
}

// Render prints the shots/latency series of Figure 13.
func (f *Fig13Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13: shots and latency vs number of segments (%s)\n\n", f.Benchmark)
	header := []string{"Segments", "Total shots", "Quantum (ms)", "Total (ms)"}
	var rows [][]string
	for _, p := range f.Points {
		if p.Err != nil {
			rows = append(rows, []string{fmt.Sprint(p.Segments), "error", p.Err.Error(), ""})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprint(p.Segments), fmt.Sprint(p.TotalShots), fmtF(p.QuantumMS), fmtF(p.TotalMS),
		})
	}
	sb.WriteString(renderTable(header, rows))
	return sb.String()
}
