package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rasengan/internal/problems"
)

// Inputs are generated up front from the --seed argument: the same seed
// gives the same specs in the same order, and the program under test only
// ever receives these generated inputs.

// exactMaxIter is the fixed optimizer budget of every exact service solve.
const exactMaxIter = 40

// waitMS makes POST /v1/solve block until the job is terminal, so one
// request is one complete solve (or one cache hit).
const waitMS = 120000

// solveSpec is one generated solve: a generator spec plus its config.
type solveSpec struct {
	Family  string
	Scale   int
	Case    int
	Seed    int64
	MaxIter int
}

// label is the paper's short benchmark name, e.g. "F2".
func (s solveSpec) label() string {
	return problems.Benchmark{Family: s.Family, Scale: s.Scale}.Label()
}

// problemName is the name Spec.Build gives the instance; together with
// the seed it identifies the solve inside the service's Solve hook.
func (s solveSpec) problemName() string { return fmt.Sprintf("%s/case%d", s.label(), s.Case) }

// solveKey identifies one generated solve from what the Solve hook sees.
func solveKey(problemName string, seed int64) string {
	return fmt.Sprintf("%s|%d", problemName, seed)
}

func (s solveSpec) key() string { return solveKey(s.problemName(), s.Seed) }

func (s solveSpec) build() (*problems.Problem, error) {
	return problems.SpecFor(problems.Benchmark{Family: s.Family, Scale: s.Scale}, s.Case).Build()
}

// body is the POST /v1/solve request for the spec.
func (s solveSpec) body() []byte {
	req := map[string]any{
		"spec":    map[string]any{"family": s.Family, "scale": s.Scale, "case": s.Case},
		"config":  map[string]any{"seed": s.Seed, "max_iter": s.MaxIter},
		"wait_ms": waitMS,
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic("perfbench: marshal request: " + err.Error())
	}
	return b
}

// cells are the fifteen family×scale cells of the exact workloads: all
// five families at scales 1–3.
func cells() []problems.Benchmark {
	var out []problems.Benchmark
	for _, f := range problems.Families {
		for scale := 1; scale <= 3; scale++ {
			out = append(out, problems.Benchmark{Family: f, Scale: scale})
		}
	}
	return out
}

// workloadRNG derives an independent stream per workload and purpose, so
// changing one workload's generator leaves the others' inputs alone.
func workloadRNG(seed int64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(int64(h ^ uint64(seed)*0x9e3779b97f4a7c15)))
}

// coldPoolCases is how many instances (case indices 0…coldPoolCases−1)
// each cell contributes to the exact request pool. Solve cost and ARG
// vary widely between instances (a few SCP-3 cases spend 0.3–0.75 s in
// basis construction), so every run walks the whole pool rather than a
// random sample of it: runs of any seed then see the same instance mix.
const coldPoolCases = 64

// exactStream returns n exact specs from the pool. Request i goes to cell
// i mod 15, so cells take turns; each cell walks its pool cases in a
// seeded order, over and over, and every request carries a fresh seeded
// solver seed, so no two requests share a cache key.
func exactStream(rng *rand.Rand, n, maxIter int) []solveSpec {
	cs := cells()
	perms := make([][]int, len(cs))
	for c := range cs {
		perms[c] = rng.Perm(coldPoolCases)
	}
	seen := make(map[string]bool, n)
	out := make([]solveSpec, 0, n)
	for i := 0; i < n; i++ {
		c := cs[i%len(cs)]
		s := solveSpec{
			Family:  c.Family,
			Scale:   c.Scale,
			Case:    perms[i%len(cs)][(i/len(cs))%coldPoolCases],
			MaxIter: maxIter,
		}
		for s.Seed == 0 || seen[s.key()] {
			s.Seed = 1 + rng.Int63n(1<<31)
		}
		seen[s.key()] = true
		out = append(out, s)
	}
	return out
}

// coldInputs is the cold-exact request list: every entry a distinct
// request, so every request misses the cache.
func coldInputs(seed int64, n int) []solveSpec {
	return exactStream(workloadRNG(seed, "cold-exact"), n, exactMaxIter)
}

// warmupMaxIter differs from exactMaxIter, so a set-up request can never
// share a cache key with a measured one.
const warmupMaxIter = exactMaxIter - 1

// warmupInputs are the set-up requests of cold-exact: cases 0 and 1 of
// every cell with solver seed 1. They do not depend on the workload
// seed, so every run's set-up does the same work.
func warmupInputs() []solveSpec {
	var out []solveSpec
	for k := 0; k < 2; k++ {
		for _, c := range cells() {
			out = append(out, solveSpec{Family: c.Family, Scale: c.Scale, Case: k, Seed: 1, MaxIter: warmupMaxIter})
		}
	}
	return out
}

// hotCasesPerCell is how many instances (cases 0…hotCasesPerCell−1) of
// each cell the hot-cache working set holds. The set, 45 entries, stays
// well under the per-backend result-cache capacity (256 by default), so
// every measured request is a hit.
const hotCasesPerCell = 3

// hotInputs returns the hot-cache working set and the order in which n
// requests draw from it (uniformly, with replacement, from the seed). The
// set itself does not depend on the seed: every entry uses solver seed 1,
// so its payloads, sizes and ARG are the same in every run.
func hotInputs(seed int64, n int) (set []solveSpec, order []int) {
	for _, c := range cells() {
		for k := 0; k < hotCasesPerCell; k++ {
			set = append(set, solveSpec{Family: c.Family, Scale: c.Scale, Case: k, Seed: 1, MaxIter: exactMaxIter})
		}
	}
	rng := workloadRNG(seed, "hot-cache")
	order = make([]int, n)
	for i := range order {
		order[i] = rng.Intn(len(set))
	}
	return set, order
}

// noisyFamilies are the noisy cells of the obs and budget experiments:
// scale-3 FLP, KPP and SCP.
var noisyFamilies = [...]string{"FLP", "KPP", "SCP"}

// noisyCasesPerFamily is how many instances (cases 0…2) of each noisy
// cell one noisy cycle holds.
const noisyCasesPerFamily = 3

// noisyMaxIter is the optimizer budget of a noisy solve (the experiment
// harness default).
const noisyMaxIter = 40

// noisyInstances are the solves of one noisy cycle: cases 0–2 of each
// noisy family at the given scale, each with solver seed 1. The solver
// seed drives shot sampling and noise trajectories and with them how
// long the optimizer runs: a cycle's time moves by some 15% from one set
// of solver seeds to another, more than the three or four cycles of a
// run can average. So the solves are fixed, and every cycle repeats them.
func noisyInstances(scale, maxIter int) []solveSpec {
	var out []solveSpec
	for k := 0; k < noisyCasesPerFamily; k++ {
		for _, f := range noisyFamilies {
			out = append(out, solveSpec{Family: f, Scale: scale, Case: k, Seed: 1, MaxIter: maxIter})
		}
	}
	return out
}

// noisyInputs returns the given number of cycles over instances, each
// cycle in its own order drawn from the seed.
func noisyInputs(seed int64, cycles int, instances []solveSpec) []solveSpec {
	rng := workloadRNG(seed, "noisy-solve")
	out := make([]solveSpec, 0, cycles*len(instances))
	for c := 0; c < cycles; c++ {
		for _, j := range rng.Perm(len(instances)) {
			out = append(out, instances[j])
		}
	}
	return out
}

// noisySetupSpecs are the solves noisy-solve's set-up repeats: the case-0
// instances of the cycle.
var noisySetupSpecs = noisyInstances(3, noisyMaxIter)[:len(noisyFamilies)]
