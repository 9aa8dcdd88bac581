package experiments

import (
	"fmt"
	"strings"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
)

// Fig16Variant names one cumulative optimization configuration.
type Fig16Variant struct {
	Name                     string
	Simplify, Prune, Segment bool
	Purify                   bool
}

// fig16Variants is the cumulative ablation ladder of Figure 16.
var fig16Variants = []Fig16Variant{
	{Name: "base", Simplify: false, Prune: false, Segment: false, Purify: false},
	{Name: "+opt1", Simplify: true, Prune: false, Segment: false, Purify: false},
	{Name: "+opt2", Simplify: true, Prune: true, Segment: false, Purify: false},
	{Name: "+opt3", Simplify: true, Prune: true, Segment: true, Purify: true},
}

// Fig16Cell is one (environment, variant) aggregate.
type Fig16Cell struct {
	ARG      metrics.Summary
	InRate   metrics.Summary
	Failures int
}

// Fig16Result reproduces Figure 16: the ablation of the optimization
// strategies on ARG and in-constraints rate across the ideal simulator
// and the two device models.
type Fig16Result struct {
	Environments []string
	Cells        map[string]map[string]*Fig16Cell // env -> variant -> cell
}

// Fig16 runs the ablation on the Figure 11 benchmark trio.
func Fig16(cfg Config) (*Fig16Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shots <= 0 {
		cfg.Shots = 512
	}
	envs := []struct {
		name string
		dev  *device.Device
	}{
		{"noise-free", nil},
		{"ibm-kyiv", device.Kyiv()},
		{"ibm-brisbane", device.Brisbane()},
	}
	out := &Fig16Result{Cells: map[string]map[string]*Fig16Cell{}}
	for _, env := range envs {
		out.Environments = append(out.Environments, env.name)
		out.Cells[env.name] = map[string]*Fig16Cell{}
		for _, variant := range fig16Variants {
			cell := &Fig16Cell{}
			var args, rates []float64
			for _, label := range fig11Benchmarks {
				b, err := problems.ByLabel(label)
				if err != nil {
					return nil, err
				}
				for c := 0; c < cfg.Cases; c++ {
					p := b.Generate(c)
					ref, err := problems.ExactReference(p)
					if err != nil {
						return nil, err
					}
					shots := cfg.Shots
					if env.dev == nil && !variant.Purify {
						// Noise-free without purification still samples to
						// keep the comparison honest.
						shots = cfg.Shots
					}
					res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{
						MaxIter: cfg.MaxIter,
						Seed:    cfg.Seed + int64(c),
						Basis:   core.BasisOptions{DisableSimplify: !variant.Simplify},
						Schedule: core.ScheduleOptions{
							DisablePrune: !variant.Prune,
						},
						Exec: core.ExecOptions{
							Shots:               shots,
							Device:              env.dev,
							Trajectories:        cfg.Trajectories,
							DisableSegmentation: !variant.Segment,
							DisablePurify:       !variant.Purify,
						},
						Telemetry: cfg.telemetry(),
					}))
					if err != nil {
						cell.Failures++
						continue
					}
					args = append(args, metrics.ARG(ref.Opt, res.Expectation))
					rates = append(rates, res.InConstraintsRate)
				}
			}
			cell.ARG = metrics.Summarize(args)
			cell.InRate = metrics.Summarize(rates)
			out.Cells[env.name][variant.Name] = cell
		}
	}
	return out, nil
}

// Render prints both panels of Figure 16.
func (f *Fig16Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 16: ablation on ARG (left) and in-constraints rate (right)\n\n")
	for _, panel := range []string{"ARG", "In-constraints rate"} {
		fmt.Fprintf(&sb, "%s\n", panel)
		header := []string{"Environment"}
		for _, v := range fig16Variants {
			header = append(header, v.Name)
		}
		var rows [][]string
		for _, env := range f.Environments {
			cells := []string{env}
			for _, v := range fig16Variants {
				c := f.Cells[env][v.Name]
				if c == nil || (c.ARG.N == 0 && c.Failures > 0) {
					cells = append(cells, fmt.Sprintf("fail(%d)", c.Failures))
					continue
				}
				if panel == "ARG" {
					cells = append(cells, fmtF(c.ARG.Mean))
				} else {
					cells = append(cells, fmt.Sprintf("%.1f%%", 100*c.InRate.Mean))
				}
			}
			rows = append(rows, cells)
		}
		sb.WriteString(renderTable(header, rows))
		sb.WriteByte('\n')
	}
	return sb.String()
}
