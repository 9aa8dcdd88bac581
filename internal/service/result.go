package service

import (
	"encoding/json"
	"sort"

	"rasengan/internal/core"
	"rasengan/internal/problems"
)

// maxDistributionEntries caps how many output states the wire payload
// carries. Entries are ordered by probability (descending, bitstring
// ascending on ties) so the cap keeps the most probable states and the
// payload stays deterministic.
const maxDistributionEntries = 64

// resultPayload is the deterministic wire form of a solve result. It
// deliberately excludes anything wall-clock dependent (the measured
// compile-time component of the latency breakdown): a given
// (spec, config) pair must marshal to byte-identical JSON whether it was
// computed fresh by one worker, by eight, or served from the cache.
type resultPayload struct {
	Problem        string  `json:"problem"`
	Family         string  `json:"family"`
	NumVars        int     `json:"num_vars"`
	NumConstraints int     `json:"num_constraints"`
	Sense          string  `json:"sense"`
	BestSolution   string  `json:"best_solution"`
	BestValue      float64 `json:"best_value"`
	Expectation    float64 `json:"expectation"`

	InConstraintsRate   float64 `json:"in_constraints_rate"`
	RawFeasibleShotRate float64 `json:"raw_feasible_shot_rate"`

	NumParams    int `json:"num_params"`
	NumSegments  int `json:"num_segments"`
	SegmentDepth int `json:"segment_depth"`
	TotalCX      int `json:"total_cx"`
	Iterations   int `json:"iterations"`
	Evals        int `json:"evals"`

	// Modeled latency components only — deterministic functions of the
	// evaluation count and device timing model.
	ModeledQuantumMS   float64 `json:"modeled_quantum_ms"`
	ModeledClassicalMS float64 `json:"modeled_classical_ms"`

	Distribution          []distEntry `json:"distribution"`
	DistributionTruncated int         `json:"distribution_truncated,omitempty"`
}

type distEntry struct {
	Solution    string  `json:"x"`
	Probability float64 `json:"p"`
	Objective   float64 `json:"f"`
}

// MarshalResultPayload renders the deterministic wire payload of a solve.
// It is exported for the verify subsystem, whose determinism metamorphic
// relations (workers=1 vs N, repeat solves, row-reordered constraints)
// compare exactly these bytes — the same bytes the cache replays on a hit.
func MarshalResultPayload(p *problems.Problem, res *core.Result) ([]byte, error) {
	return marshalResult(p, res)
}

// marshalResult renders the deterministic wire payload of a solve.
func marshalResult(p *problems.Problem, res *core.Result) ([]byte, error) {
	entries := make([]distEntry, 0, len(res.Distribution))
	for x, prob := range res.Distribution {
		entries = append(entries, distEntry{Solution: x.String(), Probability: prob, Objective: p.Objective(x)})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Probability != entries[j].Probability {
			return entries[i].Probability > entries[j].Probability
		}
		return entries[i].Solution < entries[j].Solution
	})
	truncated := 0
	if len(entries) > maxDistributionEntries {
		truncated = len(entries) - maxDistributionEntries
		entries = entries[:maxDistributionEntries]
	}
	return json.Marshal(resultPayload{
		Problem:               p.Name,
		Family:                p.Family,
		NumVars:               p.N,
		NumConstraints:        p.NumConstraints(),
		Sense:                 p.Sense.String(),
		BestSolution:          res.BestSolution.String(),
		BestValue:             res.BestValue,
		Expectation:           res.Expectation,
		InConstraintsRate:     res.InConstraintsRate,
		RawFeasibleShotRate:   res.RawFeasibleShotRate,
		NumParams:             res.NumParams,
		NumSegments:           res.NumSegments,
		SegmentDepth:          res.SegmentDepth,
		TotalCX:               res.TotalCX,
		Iterations:            res.Iterations,
		Evals:                 res.Evals,
		ModeledQuantumMS:      res.Latency.QuantumMS,
		ModeledClassicalMS:    res.Latency.ClassicalMS,
		Distribution:          entries,
		DistributionTruncated: truncated,
	})
}
