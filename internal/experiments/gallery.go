package experiments

import (
	"fmt"
	"strings"

	"rasengan/internal/baselines"
	"rasengan/internal/core"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
)

// GalleryRow is one solver's outcome on the gallery instance.
type GalleryRow struct {
	Solver    string
	ARG       float64
	BestIsOpt bool
	InRate    float64
	Depth     int
	Params    int
	LatencyMS float64
	Err       error
}

// GalleryResult is the extended method comparison: the paper's four
// methods plus its related-work alternatives (FrozenQubits, Red-QAOA,
// Grover adaptive search) and the classical simulated-annealing anchor,
// all on one instance.
type GalleryResult struct {
	Benchmark string
	Rows      []GalleryRow
}

// Gallery runs every solver in the repository on one benchmark instance.
func Gallery(cfg Config, label string) (*GalleryResult, error) {
	cfg = cfg.withDefaults()
	if label == "" {
		label = "S2"
	}
	b, err := problems.ByLabel(label)
	if err != nil {
		return nil, err
	}
	p := b.Generate(0)
	ref, err := problems.ExactReference(p)
	if err != nil {
		return nil, err
	}
	out := &GalleryResult{Benchmark: fmt.Sprintf("%s (%d qubits, optimum %g)", p.Name, p.N, ref.Opt)}
	opts := cfg.baselineOptions(nil, cfg.Seed)

	addBaseline := func(name string, res *baselines.Result, err error) {
		row := GalleryRow{Solver: name, Err: err}
		if err == nil {
			row.ARG = metrics.ARG(ref.Opt, res.Expectation)
			row.BestIsOpt = res.BestFeasible && res.BestValue == ref.Opt
			row.InRate = res.InConstraintsRate
			row.Depth = res.Depth
			row.Params = res.NumParams
			row.LatencyMS = res.Latency.TotalMS()
		}
		out.Rows = append(out.Rows, row)
	}

	r, err := baselines.HEA(p, opts)
	addBaseline("hea", r, err)
	r, err = baselines.PQAOA(p, opts)
	addBaseline("p-qaoa", r, err)
	r, err = baselines.FrozenQubits(p, 1, opts)
	addBaseline("frozen-qubits", r, err)
	r, err = baselines.RedQAOA(p, opts)
	addBaseline("red-qaoa", r, err)
	r, err = baselines.ChocoQ(p, opts)
	addBaseline("choco-q", r, err)
	r, err = baselines.GroverAdaptive(p, opts)
	addBaseline("grover-adaptive", r, err)
	addBaseline("simulated-annealing", baselines.SimulatedAnnealing(p, 300, opts), nil)

	res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{MaxIter: cfg.MaxIter, Seed: cfg.Seed, Exec: core.ExecOptions{Shots: cfg.Shots}, Telemetry: cfg.telemetry()}))
	row := GalleryRow{Solver: "rasengan", Err: err}
	if err == nil {
		row.ARG = metrics.ARG(ref.Opt, res.Expectation)
		row.BestIsOpt = res.BestValue == ref.Opt
		row.InRate = res.InConstraintsRate
		row.Depth = res.SegmentDepth
		row.Params = res.NumParams
		row.LatencyMS = res.Latency.TotalMS()
	}
	out.Rows = append(out.Rows, row)
	return out, nil
}

// Render prints the gallery.
func (g *GalleryResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Solver gallery on %s\n\n", g.Benchmark)
	header := []string{"Solver", "ARG", "Opt found", "In-constraints", "Depth", "Params", "Latency (ms)"}
	var rows [][]string
	for _, r := range g.Rows {
		if r.Err != nil {
			rows = append(rows, []string{r.Solver, "error", r.Err.Error(), "", "", "", ""})
			continue
		}
		rows = append(rows, []string{
			r.Solver, fmtF(r.ARG), fmt.Sprint(r.BestIsOpt),
			fmt.Sprintf("%.1f%%", 100*r.InRate),
			fmt.Sprint(r.Depth), fmt.Sprint(r.Params), fmtF(r.LatencyMS),
		})
	}
	sb.WriteString(renderTable(header, rows))
	return sb.String()
}
