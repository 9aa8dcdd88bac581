package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/obs"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// Engine names carried by the per-segment span attribute. Both engines
// perform the same pairing arithmetic, noise channels and reductions in the
// same order (including the amplitude prune), so results — distributions,
// samples, energies — are bit-identical; which one runs never enters the
// canonical options fingerprint.
const (
	// EngineMap is the map-based Sparse simulator: no compile step and no
	// subspace size limit. It runs as the verification oracle when
	// ExecOptions.ForceMapEngine selects it; otherwise only noisy
	// trajectories past the excursion budget finish on it.
	EngineMap = "map"
	// EngineCompiled enumerates the reachable feasible subspace once at
	// executor construction and runs flat-array transition kernels with
	// zero steady-state allocations, on ideal and noisy devices alike.
	EngineCompiled = "compiled"
)

// ErrSubspaceTooLarge matches (errors.Is) the error NewExecutor returns
// when the closure of the seed solution under the schedule exceeds the
// compile budget (quantum.DefaultCompiledMaxStates states, or 2^23
// state·operator pairs); the error text carries both counts.
var ErrSubspaceTooLarge = errors.New("core: reachable subspace exceeds the compile budget")

// compiledPlan is the executor-wide compile artifact of the compiled engine:
// the enumerated subspace plus flat per-state feasibility and
// canonical-energy tables, and on a noisy device the memo of the spaces
// noise moves trajectories into. It is built once in NewExecutor and shared
// by every clone (the memo is synchronized; everything else is read-only).
type compiledPlan struct {
	space    *quantum.CompiledSpace
	feasible []bool    // Problem.Feasible per state index
	energy   []float64 // Problem.ScoreMin per state index
	initIdx  int32
	exc      *excursions // nil without noise channels
}

// flatDist is a distribution over basis states: a flat weight per state of
// the init closure, plus the states outside it (which only noise reaches)
// in ascending bitvec.Compare order.
type flatDist struct {
	flat  []float64
	extra []weighted
}

// weighted is one state outside the init closure and its weight (a shot
// count while a segment is measured).
type weighted struct {
	x bitvec.Vec
	w float64
}

func compareWeighted(a, b weighted) int { return a.x.Compare(b.x) }

// compiledRT holds one clone's mutable flat buffers, allocated lazily on
// first run so Clone stays cheap. distIn/distOut ping-pong across segments;
// last snapshots the final distribution of the latest successful
// RunEnergyCtx for LastDistribution.
type compiledRT struct {
	// st holds the running trajectory; alt receives it when a noise branch
	// moves it to another space (the two swap).
	st, alt *quantum.CompiledState
	// rot holds each operator's (cos t, i·sin t) for the current run, so
	// the trigonometry is paid once per operator, not once per state.
	rot     []rotation
	distIn  flatDist
	distOut flatDist
	counts  []int
	// strays holds the outcomes measured outside the init closure that
	// the segment keeps (feasible ones, or all without purification);
	// purged counts the shots on the others.
	strays        []weighted
	purged        int
	last          flatDist
	lastDistValid bool
}

// rotation is one operator's precomputed (cos t, i·sin t).
type rotation struct{ c, s complex128 }

// compileEngine builds the executor's compiled plan. Called from
// NewExecutor after segmentation.
func (e *Executor) compileEngine() error {
	us := make([][]int64, len(e.ops))
	for i := range e.ops {
		us[i] = e.ops[i].U
	}
	space, err := quantum.CompileSpace(e.p.Init, us, 0)
	if err != nil {
		return fmt.Errorf("%w: %s: %w", ErrSubspaceTooLarge, e.p.Name, err)
	}
	initIdx, _ := space.IndexOf(e.p.Init) // the seed is always in its closure
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
	if e.channels != nil {
		plan.exc = newExcursions(space)
	}
	e.plan = plan
	return nil
}

// rt returns this clone's compiled runtime, allocating it on first use.
func (e *Executor) rt() *compiledRT {
	if e.crt == nil {
		n := e.plan.space.Size()
		e.crt = &compiledRT{
			st:      e.plan.space.NewState(),
			alt:     e.plan.space.NewState(),
			rot:     make([]rotation, len(e.ops)),
			distIn:  flatDist{flat: make([]float64, n)},
			distOut: flatDist{flat: make([]float64, n)},
			counts:  make([]int, n),
			last:    flatDist{flat: make([]float64, n)},
		}
		e.crt.st.SetWorkerLimit(e.workerLimit)
		e.crt.alt.SetWorkerLimit(e.workerLimit)
	}
	return e.crt
}

// runCompiled is the compiled-engine counterpart of the RunCtx segment loop,
// propagating the inter-segment distribution over the compiled subspace.
// The returned distribution aliases the clone's ping-pong buffers: callers
// consume it before the next run. Every float matches the map engine bit
// for bit — merges, purification, and normalization all accumulate in
// ascending state order, which is exactly the map path's sorted-key order.
func (e *Executor) runCompiled(ctx context.Context, t []float64, rng *rand.Rand) (*flatDist, error) {
	e.LastShotsUsed = 0
	e.LastFeasibleShots = 0
	e.LastMeasuredShots = 0
	e.LastQuantumNS = 0
	e.LastSegmentsRun = 0
	e.LastTerminatedEarly = false

	rt := e.rt()
	for op, th := range t {
		rt.rot[op] = rotation{complex(math.Cos(th), 0), complex(0, math.Sin(th))}
	}
	in, out := &rt.distIn, &rt.distOut
	clear(in.flat)
	in.extra = in.extra[:0]
	in.flat[e.plan.initIdx] = 1
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
			out.extra = out.extra[:0] // noise-free: nothing leaves the init closure
			err = e.runCompiledSegmentExact(ctx, seg, t, in.flat, out.flat, segSpan)
		} else {
			err = e.runCompiledSegmentSampled(ctx, segIdx, seg, t, in, out, rng, segSpan)
		}
		e.spans.End(segSpan)
		if err != nil {
			return nil, err
		}
		e.LastSegmentsRun++
		empty := len(out.extra) == 0
		for _, v := range out.flat {
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
	st, rot := e.crt.st, e.crt.rot
	for xi, w := range in {
		if w == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st.Reset(int32(xi))
		for _, op := range seg {
			st.ApplyRotation(op, rot[op].c, rot[op].s)
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

// runCompiledSegmentSampled mirrors runSegmentSampled over flat arrays:
// shot allocation, noise trajectories, measurement, readout error and
// purification, consuming the rng in the map path's order. Incoming states
// are visited in ascending order across the init closure and the states
// outside it; shot counts accumulate in a flat array plus one buffer of
// outcomes outside the init closure, sorted and merged at the end.
func (e *Executor) runCompiledSegmentSampled(ctx context.Context, segIdx int, seg []int, t []float64, in, out *flatDist, rng *rand.Rand, segSpan obs.SpanID) error {
	var sampleDur time.Duration
	shots := e.opts.shotsForSegment(segIdx)
	rt := e.crt
	clear(rt.counts)
	rt.strays = rt.strays[:0]
	rt.purged = 0
	segNS := 0.0
	for _, op := range seg {
		segNS += e.stats[op].durationNS
	}
	durations := transpile.DefaultDurations()
	var readout *quantum.NoiseModel
	if e.opts.Device != nil {
		durations = e.opts.Device.Durations
		if e.opts.Device.Noise.ReadoutError > 0 {
			readout = &e.opts.Device.Noise
		}
	}
	traj := 1
	if e.channels != nil {
		traj = e.opts.trajectories()
	}
	cur := distCursor{d: in, space: e.plan.space}
	for {
		xi, w, ok := cur.next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		nx := int(float64(shots)*w + 0.5)
		if nx == 0 {
			continue
		}
		e.LastShotsUsed += nx
		e.LastQuantumNS += float64(nx) * (segNS + durations.ReadoutNS + durations.ResetNS)

		tn := min(traj, nx)
		base, extra := nx/tn, nx%tn
		for k := 0; k < tn; k++ {
			n := base
			if k < extra {
				n++
			}
			if n == 0 {
				continue
			}
			tj := e.startTrajectory(xi, cur.state())
			for _, op := range seg {
				tj.transition(op, t[op])
				if e.channels != nil {
					tj.noise(op, rng)
				}
			}
			mark := e.spans.Now()
			tj.measure(rng, n, readout)
			sampleDur += e.spans.Now() - mark
		}
	}

	clear(out.flat)
	out.extra = out.extra[:0]
	total := rt.purged
	for i, c := range rt.counts {
		if c == 0 {
			continue
		}
		total += c
		out.flat[i] = float64(c)
		if e.plan.feasible[i] {
			e.LastFeasibleShots += c
		}
	}
	mark := e.spans.Now()
	if len(rt.strays) > 0 {
		slices.SortFunc(rt.strays, compareWeighted)
		for k := 0; k < len(rt.strays); {
			s := rt.strays[k]
			for k++; k < len(rt.strays) && rt.strays[k].x == s.x; k++ {
				s.w += rt.strays[k].w
			}
			c := int(s.w)
			total += c
			if e.p.Feasible(s.x) {
				e.LastFeasibleShots += c
			}
			out.extra = append(out.extra, s)
		}
	}
	if total == 0 {
		return fmt.Errorf("core: %s: zero shots allocated in segment", e.p.Name)
	}
	e.LastMeasuredShots += total
	if !e.opts.DisablePurify {
		for i := range out.flat {
			if !e.plan.feasible[i] {
				out.flat[i] = 0
			}
		}
	}
	out.normalize(e.plan.space)
	if e.spans.Enabled() {
		end := e.spans.Now()
		sampleDur += end - mark
		e.spans.Record(obs.StageSample, e.spanTrack, segSpan, end-sampleDur, end)
	}
	return nil
}

// trajectory is one noise realization of one incoming state through a
// segment. It runs on the clone's flat compiled state while every space it
// is moved into is compiled within budget, and finishes on the map engine
// (sp) otherwise; the two perform the same float operations in the same
// order, so where it runs never changes a result.
type trajectory struct {
	e    *Executor
	rt   *compiledRT
	node *spaceNode // space of rt.st; nil on a noise-free executor
	sp   *quantum.Sparse
}

// startTrajectory seeds a trajectory at x, whose init-closure index is xi
// (-1 outside it).
func (e *Executor) startTrajectory(xi int32, x bitvec.Vec) trajectory {
	tj := trajectory{e: e, rt: e.crt}
	if e.plan.exc == nil {
		tj.rt.st.Reset(xi)
		return tj
	}
	tj.node = e.plan.exc.root
	if xi < 0 {
		h := e.plan.exc.seed(x)
		if h.node == nil {
			tj.sp = quantum.NewSparse(x)
			return tj
		}
		tj.node, xi = h.node, h.idx
	}
	if tj.rt.st.Space() != tj.node.space {
		tj.rt.st.Rebind(tj.node.space)
	}
	tj.rt.st.Reset(xi)
	return tj
}

func (tj *trajectory) transition(op int, t float64) {
	if tj.sp != nil {
		tj.sp.ApplyTransition(tj.e.ops[op].U, t)
		return
	}
	tj.rt.st.ApplyRotation(op, tj.rt.rot[op].c, tj.rt.rot[op].s)
}

// noise applies operator op's noise channel, drawing from rng exactly as
// Executor.injectOperatorNoise does on the map engine.
func (tj *trajectory) noise(op int, rng *rand.Rand) {
	ch := &tj.e.channels[op]
	if len(ch.support) == 0 {
		return
	}
	if ch.depol > 0 && rng.Float64() < ch.depol {
		q := ch.support[rng.Intn(len(ch.support))]
		switch rng.Intn(3) {
		case 0:
			tj.move(q, quantum.MoveX)
		case 1:
			tj.move(q, quantum.MoveY)
		default:
			if tj.sp != nil {
				tj.sp.ApplyZ(q)
			} else {
				tj.rt.st.NegateBit(q)
			}
		}
	}
	for _, q := range ch.support {
		tj.ampDamp(q, ch.ampGamma, rng)
		tj.phaseDamp(q, ch.phaseGamma, rng)
	}
}

// move applies a basis-permuting branch: through the memoized index map
// into the target space, or on the map engine when there is none.
func (tj *trajectory) move(q int, m quantum.Move) {
	if tj.sp == nil {
		ex := tj.e.plan.exc.move(tj.node, q, m)
		if ex.to != nil {
			rt := tj.rt
			rt.alt.LoadMoved(rt.st, q, m, ex.idx, ex.to.space)
			rt.st, rt.alt = rt.alt, rt.st
			tj.node = ex.to
			return
		}
		tj.sp = tj.rt.st.ToSparse()
	}
	switch m {
	case quantum.MoveX:
		tj.sp.ApplyX(q)
	case quantum.MoveY:
		tj.sp.ApplyY(q)
	default:
		tj.sp.ApplyDecay(q)
	}
}

// ampDamp is quantum.ApplyAmplitudeDampingSparse on the trajectory.
func (tj *trajectory) ampDamp(q int, gamma float64, rng *rand.Rand) {
	if gamma <= 0 {
		return
	}
	if tj.sp != nil {
		quantum.ApplyAmplitudeDampingSparse(tj.sp, q, gamma, rng)
		return
	}
	p1 := tj.rt.st.Prob1(q)
	if rng.Float64() < gamma*p1 {
		tj.move(q, quantum.MoveDecay)
	} else {
		tj.rt.st.ScaleBit(q, complex(math.Sqrt(1-gamma), 0))
	}
	if tj.sp != nil {
		tj.sp.Normalize()
	} else {
		tj.rt.st.Normalize()
	}
}

// phaseDamp is quantum.ApplyPhaseDampingSparse on the trajectory; both of
// its branches are diagonal.
func (tj *trajectory) phaseDamp(q int, gamma float64, rng *rand.Rand) {
	if gamma <= 0 {
		return
	}
	if tj.sp != nil {
		quantum.ApplyPhaseDampingSparse(tj.sp, q, gamma, rng)
		return
	}
	st := tj.rt.st
	p1 := st.Prob1(q)
	if rng.Float64() < gamma*p1 {
		st.ProjectBit(q)
	} else {
		st.ScaleBit(q, complex(math.Sqrt(1-gamma), 0))
	}
	st.Normalize()
}

// measure samples n shots of the trajectory, applies readout error per bit
// per shot in ascending outcome order, and counts the readings.
func (tj *trajectory) measure(rng *rand.Rand, n int, readout *quantum.NoiseModel) {
	rt := tj.rt
	if tj.sp != nil {
		sampled := tj.sp.Sample(rng, n)
		for _, y := range sortedCountKeys(sampled) {
			tj.e.countReadings(y, -1, sampled[y], readout, rng)
		}
		return
	}
	space := rt.st.Space()
	for _, o := range rt.st.SampleOutcomes(rng, n) {
		home := o.Index
		if tj.node != nil {
			home = tj.node.homeOf(o.Index)
		}
		if readout == nil && home >= 0 {
			rt.counts[home] += o.Count
			continue
		}
		tj.e.countReadings(space.StateAt(o.Index), home, o.Count, readout, rng)
	}
}

// countReadings counts c shots measured in state y, whose init-closure
// index is home (-1 outside it or unknown), reading each through readout
// when it is non-nil.
func (e *Executor) countReadings(y bitvec.Vec, home int32, c int, readout *quantum.NoiseModel, rng *rand.Rand) {
	if readout == nil {
		e.count(y, home, c)
		return
	}
	for k := 0; k < c; k++ {
		r := readout.ApplyReadout(y, rng)
		h := home
		if r != y {
			h = -1
		}
		e.count(r, h, 1)
	}
}

// count adds c shots on state y, whose init-closure index is h (-1 when
// outside it or unknown).
func (e *Executor) count(y bitvec.Vec, h int32, c int) {
	rt := e.crt
	if h < 0 {
		if i, ok := e.plan.space.IndexOf(y); ok {
			h = i
		}
	}
	switch {
	case h >= 0:
		rt.counts[h] += c
	case e.opts.DisablePurify || e.p.Feasible(y):
		rt.strays = append(rt.strays, weighted{y, float64(c)})
	default:
		rt.purged += c
	}
}

// distCursor visits the states of a flatDist with nonzero weight in
// ascending bitvec.Compare order, merging the init closure's flat array
// with the states outside it.
type distCursor struct {
	d     *flatDist
	space *quantum.CompiledSpace
	i, j  int
	idx   int32 // of the current state, -1 for one outside the init closure
}

// next advances to the next state and returns its init-closure index (-1
// outside it) and weight; ok is false once every state was visited.
func (c *distCursor) next() (idx int32, w float64, ok bool) {
	flat := c.d.flat
	for c.i < len(flat) && flat[c.i] == 0 {
		c.i++
	}
	if c.j < len(c.d.extra) {
		s := &c.d.extra[c.j]
		if c.i == len(flat) || s.x.Compare(c.space.StateAt(int32(c.i))) < 0 {
			c.j++
			c.idx = -1
			return -1, s.w, true
		}
	}
	if c.i == len(flat) {
		return 0, 0, false
	}
	c.idx = int32(c.i)
	c.i++
	return c.idx, flat[c.idx], true
}

// state returns the current state.
func (c *distCursor) state() bitvec.Vec {
	if c.idx < 0 {
		return c.d.extra[c.j-1].x
	}
	return c.space.StateAt(c.idx)
}

// normalize rescales d to unit mass, summing in ascending state order like
// normalizeDist.
func (d *flatDist) normalize(space *quantum.CompiledSpace) {
	if len(d.extra) == 0 {
		normalizeFlat(d.flat)
		return
	}
	s := 0.0
	cur := distCursor{d: d, space: space}
	for {
		_, w, ok := cur.next()
		if !ok {
			break
		}
		s += w
	}
	if s == 0 {
		return
	}
	for i, v := range d.flat {
		if v != 0 {
			d.flat[i] = v / s
		}
	}
	for k := range d.extra {
		d.extra[k].w /= s
	}
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
func (e *Executor) flatToMap(d *flatDist) map[bitvec.Vec]float64 {
	out := make(map[bitvec.Vec]float64, len(d.extra))
	for i, v := range d.flat {
		if v != 0 {
			out[e.plan.space.StateAt(int32(i))] = v
		}
	}
	for _, s := range d.extra {
		out[s.x] = s.w
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
		d, err := e.runCompiled(ctx, t, rng)
		if err != nil {
			return 0, err
		}
		rt := e.crt
		copy(rt.last.flat, d.flat)
		rt.last.extra = append(rt.last.extra[:0], d.extra...)
		rt.lastDistValid = true
		energy := 0.0
		cur := distCursor{d: d, space: e.plan.space}
		for {
			i, w, ok := cur.next()
			if !ok {
				break
			}
			if i >= 0 {
				energy += w * e.plan.energy[i]
			} else {
				energy += w * e.p.ScoreMin(cur.state())
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
		return e.flatToMap(&e.crt.last)
	}
	return e.lastGoodDist
}

// CompiledSpaceStats returns (states, distinct operators, transition pairs)
// of the compile artifact, all zero under ForceMapEngine.
func (e *Executor) CompiledSpaceStats() (states, distinctOps, pairs int) {
	if e.plan == nil {
		return 0, 0, 0
	}
	return e.plan.space.Size(), e.plan.space.NumDistinctOps(), e.plan.space.NumPairs()
}
