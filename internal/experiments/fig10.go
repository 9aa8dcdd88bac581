package experiments

import (
	"fmt"
	"strings"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
)

// Fig10Point is one problem size of the scalability study.
type Fig10Point struct {
	NumVars       int
	SegmentsMax   int // unpruned transition count (the m² curve)
	SegmentsUsed  int // after pruning
	AvgDepth      float64
	NoiseFreeARG  float64
	NoisyARG      float64
	NoisyFailed   bool
	NoiseFreeFail bool
}

// Fig10Result reproduces Figure 10: segment counts, compiled circuit
// depth, and noise-free/noisy ARG over growing facility-location sizes.
type Fig10Result struct {
	Points []Fig10Point
}

// fig10Configs generates the FLP size ladder from 6 to 105 variables.
var fig10Configs = []problems.FLPConfig{
	{Demands: 1, Facilities: 2},  // 6
	{Demands: 2, Facilities: 2},  // 10
	{Demands: 2, Facilities: 3},  // 15
	{Demands: 3, Facilities: 3},  // 21
	{Demands: 4, Facilities: 3},  // 27
	{Demands: 6, Facilities: 3},  // 39
	{Demands: 8, Facilities: 3},  // 51
	{Demands: 11, Facilities: 3}, // 69
	{Demands: 13, Facilities: 3}, // 81
	{Demands: 17, Facilities: 3}, // 105
}

// Fig10 runs the scalability study over the first maxPoints sizes of the
// ladder (0 = all ten, up to 105 variables). Noisy execution uses the
// Quebec-like model; as in the paper, large noisy instances can fail to
// keep any feasible state, which is reported rather than hidden.
func Fig10(cfg Config, maxPoints int) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	if maxPoints <= 0 || maxPoints > len(fig10Configs) {
		maxPoints = len(fig10Configs)
	}
	shots := cfg.Shots
	if shots <= 0 {
		shots = 1024
	}
	out := &Fig10Result{}
	quebec := device.Quebec()
	for i, fc := range fig10Configs[:maxPoints] {
		p := problems.GenerateFLP(fc, cfg.Seed+int64(i)*17)
		ref, err := problems.FLPReference(p)
		if err != nil {
			return nil, err
		}
		pt := Fig10Point{NumVars: p.N}

		basis, err := core.BuildBasis(p, core.BasisOptions{})
		if err != nil {
			return nil, err
		}
		sched := core.BuildSchedule(p, basis, core.ScheduleOptions{MaxTrackedStates: 20000})
		pt.SegmentsMax = len(sched.AllOps)
		pt.SegmentsUsed = len(sched.Ops)

		// Average compiled segment depth on the Quebec topology: compile a
		// sample of distinct operators.
		depthSum, depthN := 0, 0
		for j, op := range sched.Ops {
			if j >= 8 {
				break
			}
			comp, err := quebec.Compile(op.OperatorCircuit(p.N, 0.5))
			if err == nil {
				depthSum += comp.Depth
				depthN++
			}
		}
		if depthN > 0 {
			pt.AvgDepth = float64(depthSum) / float64(depthN)
		}

		// Noise-free ARG with shot sampling.
		res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{
			MaxIter:   cfg.MaxIter,
			Seed:      cfg.Seed,
			Schedule:  core.ScheduleOptions{MaxTrackedStates: 20000},
			Exec:      core.ExecOptions{Shots: shots},
			Telemetry: cfg.telemetry(),
		}))
		if err != nil {
			pt.NoiseFreeFail = true
		} else {
			pt.NoiseFreeARG = metrics.ARG(ref.Opt, res.Expectation)
		}

		// Noisy ARG on the Quebec model.
		nres, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{
			MaxIter:   cfg.MaxIter / 2,
			Seed:      cfg.Seed + 1,
			Schedule:  core.ScheduleOptions{MaxTrackedStates: 20000},
			Exec:      core.ExecOptions{Shots: shots, Device: quebec, Trajectories: cfg.Trajectories},
			Telemetry: cfg.telemetry(),
		}))
		if err != nil {
			pt.NoisyFailed = true
		} else {
			pt.NoisyARG = metrics.ARG(ref.Opt, nres.Expectation)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Render prints the four panels of Figure 10 as one table.
func (f *Fig10Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: scalability analysis on large-scale FLP problems\n\n")
	header := []string{"#Vars", "Max segs", "Pruned segs", "Avg depth", "ARG (ideal)", "ARG (noisy)"}
	var rows [][]string
	for _, p := range f.Points {
		ideal := fmtF(p.NoiseFreeARG)
		if p.NoiseFreeFail {
			ideal = "failed"
		}
		noisy := fmtF(p.NoisyARG)
		if p.NoisyFailed {
			noisy = "failed"
		}
		rows = append(rows, []string{
			fmt.Sprint(p.NumVars), fmt.Sprint(p.SegmentsMax), fmt.Sprint(p.SegmentsUsed),
			fmt.Sprintf("%.0f", p.AvgDepth), ideal, noisy,
		})
	}
	sb.WriteString(renderTable(header, rows))
	return sb.String()
}
