package experiments

import (
	"fmt"
	"strings"

	"rasengan/internal/baselines"
	"rasengan/internal/core"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
	"rasengan/internal/textplot"
)

// Fig9Point is one layer-count sample of Figure 9.
type Fig9Point struct {
	Layers     int
	PQAOAARG   float64
	ChocoQARG  float64
	ChocoDepth int
}

// Fig9Result reproduces Figure 9: ARG versus QAOA layer count on the F1
// benchmark, against Rasengan's fixed-depth configuration.
type Fig9Result struct {
	Points        []Fig9Point
	RasenganARG   float64
	RasenganDepth int
	RasenganSegs  int
}

// Fig9 sweeps QAOA layers 1..MaxLayers (default 14, the paper's sweep).
func Fig9(cfg Config, maxLayers int) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	if maxLayers <= 0 {
		maxLayers = 14
	}
	p := problems.FLP(1, 0)
	ref, err := problems.ExactReference(p)
	if err != nil {
		return nil, err
	}
	out := &Fig9Result{}
	res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{MaxIter: cfg.MaxIter, Seed: cfg.Seed, Exec: core.ExecOptions{Shots: cfg.Shots}, Telemetry: cfg.telemetry()}))
	if err != nil {
		return nil, err
	}
	out.RasenganARG = metrics.ARG(ref.Opt, res.Expectation)
	out.RasenganDepth = res.SegmentDepth
	out.RasenganSegs = res.NumSegments

	for layers := 1; layers <= maxLayers; layers++ {
		opts := cfg.baselineOptions(nil, cfg.Seed)
		opts.Layers = layers
		point := Fig9Point{Layers: layers}
		if pq, err := baselines.PQAOA(p, opts); err == nil {
			point.PQAOAARG = metrics.ARG(ref.Opt, pq.Expectation)
		}
		if cq, err := baselines.ChocoQ(p, opts); err == nil {
			point.ChocoQARG = metrics.ARG(ref.Opt, cq.Expectation)
			point.ChocoDepth = cq.Depth
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}

// Render prints the layer sweep as a series table.
func (f *Fig9Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: ARG vs number of QAOA layers (F1)\n")
	fmt.Fprintf(&sb, "Rasengan: ARG %s with %d segments of depth %d (layer-independent)\n\n",
		fmtF(f.RasenganARG), f.RasenganSegs, f.RasenganDepth)
	header := []string{"Layers", "P-QAOA ARG", "Choco-Q ARG", "Choco-Q depth"}
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Layers), fmtF(p.PQAOAARG), fmtF(p.ChocoQARG), fmt.Sprint(p.ChocoDepth),
		})
	}
	sb.WriteString(renderTable(header, rows))

	var pq, cq, ras []float64
	for _, p := range f.Points {
		pq = append(pq, p.PQAOAARG)
		cq = append(cq, p.ChocoQARG)
		ras = append(ras, f.RasenganARG)
	}
	sb.WriteByte('\n')
	sb.WriteString(textplot.LinePlot("ARG vs layers (log-free scale)", []textplot.Series{
		{Name: "p-qaoa", Values: pq},
		{Name: "choco-q", Values: cq},
		{Name: "rasengan (fixed)", Values: ras},
	}, 10, 56))
	return sb.String()
}
