package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/obs"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// Engine names reported by Executor.EngineUsed and the per-segment span
// attribute. Both engines perform the same pairing arithmetic in the same
// order (including the amplitude prune), so results — distributions,
// samples, energies — are bit-identical on their shared domain; which one
// runs is a pure performance matter and never enters the canonical options
// fingerprint.
const (
	// EngineMap is the map-based Sparse simulator: no compile step, no
	// subspace size limit, and the only engine that supports noisy devices
	// (noise channels can scatter a state outside the compiled closure).
	// ExecOptions.ForceMapEngine selects it unconditionally.
	EngineMap = "map"
	// EngineCompiled enumerates the reachable feasible subspace once at
	// executor construction and runs flat-array transition kernels with
	// zero steady-state allocations. It is the default; executors fall
	// back to EngineMap when a noisy device is attached or the subspace
	// exceeds the compile budget (see Executor.EngineFallbackReason).
	EngineCompiled = "compiled"
)

// compiledPlan is the executor-wide compile artifact of the compiled engine:
// the enumerated subspace plus flat per-state feasibility and
// canonical-energy tables. It is built once in NewExecutor and shared
// read-only by every clone.
type compiledPlan struct {
	space    *quantum.CompiledSpace
	feasible []bool    // Problem.Feasible per state index
	energy   []float64 // Problem.ScoreMin per state index
	initIdx  int32
}

// compiledRT holds one clone's mutable flat buffers, allocated lazily on
// first run so Clone stays cheap. distIn/distOut ping-pong across segments;
// lastDist snapshots the final distribution of the latest successful
// RunEnergyCtx for LastDistribution.
type compiledRT struct {
	st            *quantum.CompiledState
	distIn        []float64
	distOut       []float64
	counts        []int
	lastDist      []float64
	lastDistValid bool
}

// compileEngine attempts to select the compiled engine for this executor,
// setting plan/EngineUsed on success and EngineFallbackReason otherwise.
// Called from NewExecutor after segmentation.
func (e *Executor) compileEngine() {
	if e.opts.Device != nil && !e.opts.Device.Noise.IsZero() {
		e.EngineFallbackReason = "noisy device: noise channels can leave the compiled subspace"
		return
	}
	us := make([][]int64, len(e.ops))
	for i := range e.ops {
		us[i] = e.ops[i].U
	}
	space, ok := quantum.CompileSpace(e.p.Init, us, 0)
	if !ok {
		e.EngineFallbackReason = "reachable subspace exceeds the compile budget"
		return
	}
	initIdx, ok := space.IndexOf(e.p.Init)
	if !ok {
		e.EngineFallbackReason = "seed solution missing from compiled subspace"
		return
	}
	plan := &compiledPlan{
		space:    space,
		feasible: make([]bool, space.Size()),
		energy:   make([]float64, space.Size()),
		initIdx:  initIdx,
	}
	for i := 0; i < space.Size(); i++ {
		x := space.StateAt(int32(i))
		plan.feasible[i] = e.p.Feasible(x)
		plan.energy[i] = e.p.ScoreMin(x)
	}
	e.plan = plan
	e.EngineUsed = EngineCompiled
}

// rt returns this clone's compiled runtime, allocating it on first use.
func (e *Executor) rt() *compiledRT {
	if e.crt == nil {
		n := e.plan.space.Size()
		e.crt = &compiledRT{
			st:       e.plan.space.NewState(),
			distIn:   make([]float64, n),
			distOut:  make([]float64, n),
			counts:   make([]int, n),
			lastDist: make([]float64, n),
		}
		e.crt.st.SetWorkerLimit(e.workerLimit)
	}
	return e.crt
}

// runCompiled is the compiled-engine counterpart of the RunCtx segment loop,
// propagating the inter-segment distribution as a flat []float64 over the
// compiled subspace. The returned slice aliases the clone's ping-pong
// buffer: callers consume it before the next run. Every float matches the
// map engine bit for bit — merges, purification, and normalization all
// accumulate in ascending state order, which is exactly the map path's
// sorted-key order.
func (e *Executor) runCompiled(ctx context.Context, t []float64, rng *rand.Rand) ([]float64, error) {
	e.LastShotsUsed = 0
	e.LastFeasibleShots = 0
	e.LastMeasuredShots = 0
	e.LastQuantumNS = 0
	e.LastSegmentsRun = 0
	e.LastTerminatedEarly = false

	rt := e.rt()
	in, out := rt.distIn, rt.distOut
	for i := range in {
		in[i] = 0
	}
	in[e.plan.initIdx] = 1
	for segIdx, seg := range e.segments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		segSpan := obs.NoParent
		if e.spans.Enabled() {
			segSpan = e.spans.Start(obs.StageSegment, e.spanTrack, e.spanRoot,
				obs.Attr{Key: "segment", Val: strconv.Itoa(segIdx)},
				obs.Attr{Key: obs.AttrEngine, Val: EngineCompiled})
		}
		var err error
		if e.opts.Shots <= 0 && e.opts.Device == nil {
			err = e.runCompiledSegmentExact(ctx, seg, t, in, out, segSpan)
		} else {
			err = e.runCompiledSegmentSampled(ctx, segIdx, seg, t, in, out, rng, segSpan)
		}
		e.spans.End(segSpan)
		if err != nil {
			return nil, err
		}
		e.LastSegmentsRun++
		empty := true
		for _, v := range out {
			if v != 0 {
				empty = false
				break
			}
		}
		if empty {
			// All mass purified away — the same failure mode and message as
			// the map path.
			e.LastTerminatedEarly = true
			return nil, fmt.Errorf("core: %s: no feasible state survived segment %d", e.p.Name, e.LastSegmentsRun)
		}
		in, out = out, in
	}
	return in, nil
}

// runCompiledSegmentExact mirrors runSegmentExact over flat arrays: each
// incoming state with nonzero weight evolves coherently through the segment
// on the clone's CompiledState, and its outcome probabilities merge into out
// in sorted support order.
func (e *Executor) runCompiledSegmentExact(ctx context.Context, seg []int, t []float64, in, out []float64, segSpan obs.SpanID) error {
	modelShots := e.opts.Shots
	if modelShots <= 0 {
		modelShots = 1024
	}
	segNS := 0.0
	for _, i := range seg {
		segNS += e.stats[i].durationNS
	}
	d := transpile.DefaultDurations()
	e.LastQuantumNS += float64(modelShots) * (segNS + d.ReadoutNS + d.ResetNS)
	e.LastShotsUsed += modelShots

	var sampleDur time.Duration
	for i := range out {
		out[i] = 0
	}
	st := e.crt.st
	for xi, w := range in {
		if w == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st.Reset(int32(xi))
		for _, op := range seg {
			st.ApplyTransition(op, t[op])
		}
		mark := e.spans.Now()
		for _, yi := range st.SortedActive() {
			a := st.AmpAt(yi)
			out[yi] += w * (real(a)*real(a) + imag(a)*imag(a))
		}
		sampleDur += e.spans.Now() - mark
	}
	mark := e.spans.Now()
	if !e.opts.DisablePurify {
		for i := range out {
			if !e.plan.feasible[i] {
				out[i] = 0
			}
		}
	}
	normalizeFlat(out)
	if e.spans.Enabled() {
		end := e.spans.Now()
		sampleDur += end - mark
		e.spans.Record(obs.StageSample, e.spanTrack, segSpan, end-sampleDur, end)
	}
	return nil
}

// runCompiledSegmentSampled mirrors runSegmentSampled for the compiled
// engine's domain (no noise channels, so exactly one trajectory per state
// and no readout flips — the same branch the map path takes with a
// zero-noise device). Shot counts accumulate into a flat counts array with
// the same rng consumption order as the map path.
func (e *Executor) runCompiledSegmentSampled(ctx context.Context, segIdx int, seg []int, t []float64, in, out []float64, rng *rand.Rand, segSpan obs.SpanID) error {
	var sampleDur time.Duration
	shots := e.opts.shotsForSegment(segIdx)
	rt := e.crt
	counts := rt.counts
	for i := range counts {
		counts[i] = 0
	}
	st := rt.st
	for xi, w := range in {
		if w == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		nx := int(float64(shots)*w + 0.5)
		if nx == 0 {
			continue
		}
		e.LastShotsUsed += nx
		segNS := 0.0
		for _, op := range seg {
			segNS += e.stats[op].durationNS
		}
		durations := transpile.DefaultDurations()
		if e.opts.Device != nil {
			durations = e.opts.Device.Durations
		}
		e.LastQuantumNS += float64(nx) * (segNS + durations.ReadoutNS + durations.ResetNS)

		st.Reset(int32(xi))
		for _, op := range seg {
			st.ApplyTransition(op, t[op])
		}
		mark := e.spans.Now()
		st.SampleCounts(rng, nx, counts)
		sampleDur += e.spans.Now() - mark
	}
	total := 0
	any := false
	for i := range out {
		out[i] = 0
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		any = true
		total += c
		out[i] = float64(c)
		if e.plan.feasible[i] {
			e.LastFeasibleShots += c
		}
	}
	if !any {
		return fmt.Errorf("core: %s: zero shots allocated in segment", e.p.Name)
	}
	e.LastMeasuredShots += total
	mark := e.spans.Now()
	if !e.opts.DisablePurify {
		for i := range out {
			if !e.plan.feasible[i] {
				out[i] = 0
			}
		}
	}
	normalizeFlat(out)
	if e.spans.Enabled() {
		end := e.spans.Now()
		sampleDur += end - mark
		e.spans.Record(obs.StageSample, e.spanTrack, segSpan, end-sampleDur, end)
	}
	return nil
}

// normalizeFlat rescales a flat distribution to unit mass. The sum runs in
// ascending index order — identical to normalizeDist's sorted-key order,
// since adding exact zeros does not perturb an IEEE accumulation.
func normalizeFlat(d []float64) {
	s := 0.0
	for _, v := range d {
		s += v
	}
	if s == 0 {
		return
	}
	for i, v := range d {
		if v != 0 {
			d[i] = v / s
		}
	}
}

// flatToMap materializes a flat distribution as the map form the public API
// returns; zero entries are absent keys, matching the map engine exactly.
func (e *Executor) flatToMap(flat []float64) map[bitvec.Vec]float64 {
	out := make(map[bitvec.Vec]float64)
	for i, v := range flat {
		if v != 0 {
			out[e.plan.space.StateAt(int32(i))] = v
		}
	}
	return out
}

// RunEnergy is RunEnergyCtx without cancellation.
func (e *Executor) RunEnergy(t []float64, rng *rand.Rand) (float64, error) {
	return e.RunEnergyCtx(context.Background(), t, rng)
}

// RunEnergyCtx executes the schedule like RunCtx but returns only the
// expectation of the problem's canonical minimization objective over the
// final distribution — the scalar the optimizer minimizes. On the compiled
// engine this reads the precomputed energy table over the flat distribution
// and materializes no maps; the full distribution of the most recent
// successful call stays available through LastDistribution. The returned
// energy is bit-identical across engines: both accumulate weight·energy in
// ascending basis-state order over the same weights.
func (e *Executor) RunEnergyCtx(ctx context.Context, t []float64, rng *rand.Rand) (float64, error) {
	if len(t) != len(e.ops) {
		return 0, fmt.Errorf("core: %d times for %d operators", len(t), len(e.ops))
	}
	if e.plan != nil {
		flat, err := e.runCompiled(ctx, t, rng)
		if err != nil {
			return 0, err
		}
		rt := e.crt
		copy(rt.lastDist, flat)
		rt.lastDistValid = true
		energy := 0.0
		for i, v := range flat {
			if v != 0 {
				energy += v * e.plan.energy[i]
			}
		}
		return energy, nil
	}
	dist, err := e.RunCtx(ctx, t, rng)
	if err != nil {
		return 0, err
	}
	e.lastGoodDist = dist
	energy := 0.0
	for _, x := range sortedDistKeys(dist) {
		energy += dist[x] * e.p.ScoreMin(x)
	}
	return energy, nil
}

// LastDistribution returns the final distribution of the most recent
// successful RunEnergyCtx on this executor clone, or nil when none
// succeeded yet. The compiled engine materializes the map on demand — only
// callers that actually need the fallback distribution (the solver, when
// the final evaluation fails) pay for it.
func (e *Executor) LastDistribution() map[bitvec.Vec]float64 {
	if e.plan != nil {
		if e.crt == nil || !e.crt.lastDistValid {
			return nil
		}
		return e.flatToMap(e.crt.lastDist)
	}
	return e.lastGoodDist
}

// CompiledSpaceSize reports the number of basis states in the compiled
// subspace (0 when the map engine is active) — surfaced by rasengan-inspect.
func (e *Executor) CompiledSpaceSize() int {
	if e.plan == nil {
		return 0
	}
	return e.plan.space.Size()
}

// CompiledSpaceStats returns (states, distinct operators, transition pairs)
// of the compile artifact, all zero when the map engine is active.
func (e *Executor) CompiledSpaceStats() (states, distinctOps, pairs int) {
	if e.plan == nil {
		return 0, 0, 0
	}
	return e.plan.space.Size(), e.plan.space.NumDistinctOps(), e.plan.space.NumPairs()
}
