package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// ExecOptions configures segmented execution (Sections 4.2–4.3).
type ExecOptions struct {
	// Shots per segment; 0 runs exact probability propagation (only
	// meaningful without a noisy device).
	Shots int
	// OpsPerSegment fixes how many transition operators each segment
	// holds. 0 derives segmentation from DepthBudget.
	OpsPerSegment int
	// DepthBudget is the compiled-depth budget per segment used when
	// OpsPerSegment is 0 (default 50, the paper's deployable depth).
	DepthBudget int
	// DisableSegmentation executes the whole schedule as one coherent
	// circuit (ablation for opt 3).
	DisableSegmentation bool
	// DisablePurify turns off the constraint filter between segments
	// (ablation for the error-mitigation half of opt 3).
	DisablePurify bool
	// Device supplies the noise model and timing; nil is the ideal
	// simulator.
	Device *device.Device
	// Trajectories bounds noise realizations per (segment, input state);
	// 0 defaults to 8.
	Trajectories int
	// ShotGrowth scales the shot budget of each successive segment
	// (shots_i = Shots · ShotGrowth^i, capped by MaxShotsPerSegment):
	// the dynamic configuration of Figure 7, where later segments take
	// more shots to preserve the probability information with higher
	// precision. 0 or 1 keeps shots constant.
	ShotGrowth float64
	// MaxShotsPerSegment caps the growth (default 65536).
	MaxShotsPerSegment int
	// ForceMapEngine skips the compiled engine and runs the map-based
	// Sparse simulator unconditionally. Without it the executor compiles
	// the reachable feasible subspace, noisy devices included, and falls
	// back to the map engine only when the subspace exceeds the compile
	// budget. The engines are bit-identical, so the field is excluded from
	// CanonicalOptionsJSON; it exists for the verification oracle and
	// engine tests/benchmarks, which compare the two paths.
	ForceMapEngine bool
}

func (o ExecOptions) depthBudget() int {
	if o.DepthBudget > 0 {
		return o.DepthBudget
	}
	// Derive from the device's coherence window when one is attached:
	// segments should spend at most ~20% of T2 in flight, which at
	// Eagle-class timings (T2 150 µs, CX 560 ns) lands at the paper's
	// ~50-deep deployable segments.
	if o.Device != nil && o.Device.T2NS > 0 && o.Device.Durations.TwoQubitNS > 0 {
		b := int(0.2 * o.Device.T2NS / o.Device.Durations.TwoQubitNS)
		if b < 10 {
			b = 10
		}
		if b > 200 {
			b = 200
		}
		return b
	}
	return 50
}

func (o ExecOptions) trajectories() int {
	if o.Trajectories <= 0 {
		return 8
	}
	return o.Trajectories
}

// shotsForSegment returns the (possibly growing) shot budget of segment
// index segIdx.
func (o ExecOptions) shotsForSegment(segIdx int) int {
	shots := o.Shots
	if shots <= 0 {
		shots = 1024
	}
	if o.ShotGrowth > 1 {
		// Closed form instead of an O(segIdx) multiply loop: this runs once
		// per (segment, run) on the sampled hot path.
		f := math.Pow(o.ShotGrowth, float64(segIdx))
		shots = int(float64(shots) * f)
		cap := o.MaxShotsPerSegment
		if cap <= 0 {
			cap = 65536
		}
		if shots > cap {
			shots = cap
		}
	}
	return shots
}

// opStats caches per-operator compiled metrics used by the noise and
// latency models.
type opStats struct {
	oneQ, twoQ int
	depth      int
	durationNS float64
}

// opChannel is one operator's effective noise channel on a noisy device
// (Device.OperatorNoise), fixed at executor construction: a depolarizing
// event strikes one uniformly chosen support qubit, and both damping
// channels act on every support qubit with the operator's rate split
// evenly across them.
type opChannel struct {
	support    []int
	depol      float64
	ampGamma   float64 // per support qubit
	phaseGamma float64 // per support qubit
}

// Executor runs a fixed schedule with variable evolution times. It is
// constructed once per solve: segmentation and per-operator compilation
// are offline, matching the paper's one-shot pruning/compile flow.
type Executor struct {
	p        *problems.Problem
	ops      []Transition
	segments [][]int // operator indices per segment
	stats    []opStats
	opts     ExecOptions
	// channels holds each operator's noise channel; nil without a noisy
	// device.
	channels []opChannel

	// SegmentDepths holds the compiled depth of each segment circuit.
	SegmentDepths []int
	// TotalCX is the compiled CX count of the full schedule.
	TotalCX int

	// Accounting for the most recent Run call.
	LastShotsUsed       int
	LastFeasibleShots   int
	LastMeasuredShots   int
	LastQuantumNS       float64
	LastSegmentsRun     int
	LastTerminatedEarly bool

	// EngineUsed is the engine actually selected at construction —
	// EngineCompiled, or EngineMap (possibly as a fallback, see
	// EngineFallbackReason).
	EngineUsed string
	// EngineFallbackReason explains why a requested/default compiled
	// engine fell back to the map engine ("" when it did not).
	EngineFallbackReason string

	// plan is the compiled-engine artifact (nil when EngineUsed ==
	// EngineMap); crt holds this clone's mutable flat buffers, lazily
	// allocated and never shared across clones. lastGoodDist backs
	// LastDistribution on the map path.
	plan         *compiledPlan
	crt          *compiledRT
	lastGoodDist map[bitvec.Vec]float64

	// Telemetry sink (SetTelemetry). Kept out of ExecOptions so the
	// canonical options fingerprint can never absorb a recorder.
	spans     *obs.Recorder
	spanTrack int32
	spanRoot  obs.SpanID

	// workerLimit caps the kernel fan-out of this clone's compiled state
	// (0 = package default). Kept out of ExecOptions for the same reason
	// as the telemetry sink: widths never affect results or cache keys.
	workerLimit int
}

// SetWorkerLimit caps this executor's simulator parallelism; n <= 0
// restores the package default width. The solver calls it per clone when
// the solve holds a compute-budget lease, and again at every iteration
// boundary as the lease is renegotiated. Results are bit-identical at
// any limit.
func (e *Executor) SetWorkerLimit(n int) {
	if n < 0 {
		n = 0
	}
	e.workerLimit = n
	if e.crt != nil {
		e.crt.st.SetWorkerLimit(n)
		e.crt.alt.SetWorkerLimit(n)
	}
}

// SetTelemetry points the executor's span output at rec (nil disables),
// tagging every segment/sample span with the given track and parent. The
// solver calls this per clone so concurrent starts write disjoint tracks.
func (e *Executor) SetTelemetry(rec *obs.Recorder, track int32, parent obs.SpanID) {
	e.spans = rec
	e.spanTrack = track
	e.spanRoot = parent
}

// NewExecutor compiles the schedule and fixes the segmentation.
func NewExecutor(p *problems.Problem, ops []Transition, opts ExecOptions) (*Executor, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("core: empty schedule for %s", p.Name)
	}
	e := &Executor{p: p, ops: ops, opts: opts, EngineUsed: EngineMap}

	// Compile each distinct operator once (structure is t-independent).
	e.stats = make([]opStats, len(ops))
	durations := transpile.DefaultDurations()
	if opts.Device != nil {
		durations = opts.Device.Durations
	}
	for i, tr := range ops {
		circ := tr.OperatorCircuit(p.N, 0.5)
		dec := transpile.Decompose(circ)
		e.stats[i] = opStats{
			oneQ:       len(dec.Gates) - dec.CountTwoQubit(),
			twoQ:       dec.CountTwoQubit(),
			depth:      dec.Depth(),
			durationNS: transpile.CircuitDurationNS(dec, durations),
		}
		e.TotalCX += dec.CountKind(quantum.GateCX)
	}
	if opts.Device != nil && !opts.Device.Noise.IsZero() {
		e.channels = make([]opChannel, len(ops))
		for i, tr := range ops {
			st := e.stats[i]
			eff := opts.Device.OperatorNoise(st.oneQ, st.twoQ, st.depth)
			sup := tr.Support()
			e.channels[i] = opChannel{
				support:    sup,
				depol:      eff.DepolProb,
				ampGamma:   eff.AmpDampGamma / float64(len(sup)),
				phaseGamma: eff.PhaseGamma / float64(len(sup)),
			}
		}
	}

	// Segmentation.
	switch {
	case opts.DisableSegmentation:
		all := make([]int, len(ops))
		for i := range all {
			all[i] = i
		}
		e.segments = [][]int{all}
	case opts.OpsPerSegment > 0:
		for i := 0; i < len(ops); i += opts.OpsPerSegment {
			j := i + opts.OpsPerSegment
			if j > len(ops) {
				j = len(ops)
			}
			seg := make([]int, 0, j-i)
			for k := i; k < j; k++ {
				seg = append(seg, k)
			}
			e.segments = append(e.segments, seg)
		}
	default:
		budget := opts.depthBudget()
		var seg []int
		segDepth := 0
		for i := range ops {
			d := e.stats[i].depth
			if len(seg) > 0 && segDepth+d > budget {
				e.segments = append(e.segments, seg)
				seg, segDepth = nil, 0
			}
			seg = append(seg, i)
			segDepth += d
		}
		if len(seg) > 0 {
			e.segments = append(e.segments, seg)
		}
	}
	for _, seg := range e.segments {
		d := 0
		for _, i := range seg {
			d += e.stats[i].depth
		}
		e.SegmentDepths = append(e.SegmentDepths, d)
	}
	if !opts.ForceMapEngine {
		e.compileEngine()
	}
	return e, nil
}

// Clone returns an executor that shares the compiled schedule,
// segmentation, and per-operator stats (all read-only after construction)
// but has private run accounting, so clones can Run concurrently — the
// solver gives each optimizer start its own clone.
func (e *Executor) Clone() *Executor {
	c := *e
	c.LastShotsUsed = 0
	c.LastFeasibleShots = 0
	c.LastMeasuredShots = 0
	c.LastQuantumNS = 0
	c.LastSegmentsRun = 0
	c.LastTerminatedEarly = false
	// The compiled plan is shared read-only, but runtime buffers and the
	// last-distribution snapshot are per-clone state.
	c.crt = nil
	c.lastGoodDist = nil
	return &c
}

// NumSegments returns how many segments execution is split into.
func (e *Executor) NumSegments() int { return len(e.segments) }

// NumParams returns the number of tunable evolution times.
func (e *Executor) NumParams() int { return len(e.ops) }

// MaxSegmentDepth returns the compiled depth of the deepest segment — the
// executable-depth figure reported in Table 2.
func (e *Executor) MaxSegmentDepth() int {
	max := 0
	for _, d := range e.SegmentDepths {
		if d > max {
			max = d
		}
	}
	return max
}

// Run executes the schedule with evolution times t (len == NumParams) and
// returns the final measured distribution over basis states. With
// Shots == 0 and no device it propagates exact probabilities; otherwise it
// samples `Shots` per segment, splitting them across the incoming basis
// states proportionally to their probability (Figure 7), injecting device
// noise by trajectory, and purifying between segments (Figure 8).
func (e *Executor) Run(t []float64, rng *rand.Rand) (map[bitvec.Vec]float64, error) {
	return e.RunCtx(context.Background(), t, rng)
}

// RunCtx is Run with cooperative cancellation: ctx is checked before every
// segment and between the per-input-state evolutions inside a segment, so a
// deadline frees the caller within one state's worth of work rather than a
// full schedule. On cancellation the context's error is returned and the
// partial distribution is discarded.
func (e *Executor) RunCtx(ctx context.Context, t []float64, rng *rand.Rand) (map[bitvec.Vec]float64, error) {
	if len(t) != len(e.ops) {
		return nil, fmt.Errorf("core: %d times for %d operators", len(t), len(e.ops))
	}
	if e.plan != nil {
		d, err := e.runCompiled(ctx, t, rng)
		if err != nil {
			return nil, err
		}
		return e.flatToMap(d), nil
	}
	e.LastShotsUsed = 0
	e.LastFeasibleShots = 0
	e.LastMeasuredShots = 0
	e.LastQuantumNS = 0
	e.LastSegmentsRun = 0
	e.LastTerminatedEarly = false

	dist := map[bitvec.Vec]float64{e.p.Init: 1}
	for segIdx, seg := range e.segments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		segSpan := obs.NoParent
		if e.spans.Enabled() {
			segSpan = e.spans.Start(obs.StageSegment, e.spanTrack, e.spanRoot,
				obs.Attr{Key: "segment", Val: strconv.Itoa(segIdx)},
				obs.Attr{Key: obs.AttrEngine, Val: EngineMap})
		}
		var next map[bitvec.Vec]float64
		var err error
		if e.opts.Shots <= 0 && e.opts.Device == nil {
			next, err = e.runSegmentExact(ctx, seg, t, dist, segSpan)
		} else {
			next, err = e.runSegmentSampled(ctx, segIdx, seg, t, dist, rng, segSpan)
		}
		e.spans.End(segSpan)
		if err != nil {
			return nil, err
		}
		e.LastSegmentsRun++
		if len(next) == 0 {
			// All mass purified away: no feasible state survived the
			// noise. The paper's Figure 10(d)/14(b) failure mode.
			e.LastTerminatedEarly = true
			return nil, fmt.Errorf("core: %s: no feasible state survived segment %d", e.p.Name, e.LastSegmentsRun)
		}
		dist = next
	}
	return dist, nil
}

// runSegmentExact propagates exact probabilities: each incoming basis
// state evolves coherently through the segment, is "measured", and its
// outcome distribution is mixed in with the incoming weight. This is the
// Shots → ∞ limit of the sampled path.
func (e *Executor) runSegmentExact(ctx context.Context, seg []int, t []float64, in map[bitvec.Vec]float64, segSpan obs.SpanID) (map[bitvec.Vec]float64, error) {
	// Model the hardware time this segment would take at the default shot
	// budget, so latency accounting stays comparable across exact and
	// sampled runs.
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

	// Measurement time (probability collapse + purification) is accumulated
	// across states and emitted as one StageSample span per segment, so the
	// span count stays O(segments) rather than O(states).
	var sampleDur time.Duration
	out := map[bitvec.Vec]float64{}
	for _, x := range sortedDistKeys(in) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := in[x]
		st := quantum.NewSparse(x)
		for _, i := range seg {
			st.ApplyTransition(e.ops[i].U, t[i])
		}
		mark := e.spans.Now()
		probs := st.Probabilities()
		for _, y := range st.Support() {
			out[y] += w * probs[y]
		}
		sampleDur += e.spans.Now() - mark
	}
	mark := e.spans.Now()
	if !e.opts.DisablePurify {
		purifyDist(out, e.p)
	}
	normalizeDist(out)
	if e.spans.Enabled() {
		end := e.spans.Now()
		sampleDur += end - mark
		e.spans.Record(obs.StageSample, e.spanTrack, segSpan, end-sampleDur, end)
	}
	return out, nil
}

// runSegmentSampled is the hardware-path execution: shot allocation,
// trajectory noise, measurement, readout error, purification.
func (e *Executor) runSegmentSampled(ctx context.Context, segIdx int, seg []int, t []float64, in map[bitvec.Vec]float64, rng *rand.Rand, segSpan obs.SpanID) (map[bitvec.Vec]float64, error) {
	var sampleDur time.Duration // shot sampling + readout time, one span per segment
	shots := e.opts.shotsForSegment(segIdx)
	counts := map[bitvec.Vec]int{}
	states := sortedDistKeys(in)
	var noise *quantum.NoiseModel
	if e.opts.Device != nil {
		noise = &e.opts.Device.Noise
	}
	for _, x := range states {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nx := int(float64(shots)*in[x] + 0.5)
		if nx == 0 {
			continue
		}
		e.LastShotsUsed += nx
		// Latency: every shot replays the segment circuit.
		segNS := 0.0
		for _, i := range seg {
			segNS += e.stats[i].durationNS
		}
		durations := transpile.DefaultDurations()
		if e.opts.Device != nil {
			durations = e.opts.Device.Durations
		}
		e.LastQuantumNS += float64(nx) * (segNS + durations.ReadoutNS + durations.ResetNS)

		traj := e.opts.trajectories()
		if e.channels == nil {
			traj = 1
		}
		if traj > nx {
			traj = nx
		}
		base, extra := nx/traj, nx%traj
		for tr := 0; tr < traj; tr++ {
			n := base
			if tr < extra {
				n++
			}
			if n == 0 {
				continue
			}
			st := quantum.NewSparse(x)
			for _, i := range seg {
				st.ApplyTransition(e.ops[i].U, t[i])
				if e.channels != nil {
					e.injectOperatorNoise(st, i, rng)
				}
			}
			mark := e.spans.Now()
			sampled := st.Sample(rng, n)
			// Sorted key order: readout flips consume rng, so map-iteration
			// order must not leak into the run's randomness.
			for _, y := range sortedCountKeys(sampled) {
				c := sampled[y]
				if noise != nil && noise.ReadoutError > 0 {
					for k := 0; k < c; k++ {
						counts[noise.ApplyReadout(y, rng)]++
					}
				} else {
					counts[y] += c
				}
			}
			sampleDur += e.spans.Now() - mark
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("core: %s: zero shots allocated in segment", e.p.Name)
	}
	out := map[bitvec.Vec]float64{}
	total := 0
	for y, c := range counts {
		total += c
		out[y] = float64(c)
		if e.p.Feasible(y) {
			e.LastFeasibleShots += c
		}
	}
	e.LastMeasuredShots += total
	mark := e.spans.Now()
	if !e.opts.DisablePurify {
		purifyDist(out, e.p)
	}
	normalizeDist(out)
	if e.spans.Enabled() {
		end := e.spans.Now()
		sampleDur += end - mark
		e.spans.Record(obs.StageSample, e.spanTrack, segSpan, end-sampleDur, end)
	}
	return out, nil
}

// injectOperatorNoise applies operator opIdx's noise channel to the map
// engine's trajectory state. The compiled engine's trajectory.noise
// consumes the rng in exactly this order.
func (e *Executor) injectOperatorNoise(st *quantum.Sparse, opIdx int, rng *rand.Rand) {
	ch := &e.channels[opIdx]
	if len(ch.support) == 0 {
		return
	}
	if ch.depol > 0 && rng.Float64() < ch.depol {
		q := ch.support[rng.Intn(len(ch.support))]
		switch rng.Intn(3) {
		case 0:
			st.ApplyX(q)
		case 1:
			st.ApplyY(q)
		default:
			st.ApplyZ(q)
		}
	}
	for _, q := range ch.support {
		quantum.ApplyAmplitudeDampingSparse(st, q, ch.ampGamma, rng)
		quantum.ApplyPhaseDampingSparse(st, q, ch.phaseGamma, rng)
	}
}

func purifyDist(d map[bitvec.Vec]float64, p *problems.Problem) {
	for x := range d {
		if !p.Feasible(x) {
			delete(d, x)
		}
	}
}

func normalizeDist(d map[bitvec.Vec]float64) {
	// Sum in deterministic key order: map-iteration float addition would
	// make otherwise-identical runs diverge at the last ulp and send the
	// optimizer down different paths.
	s := 0.0
	for _, k := range sortedDistKeys(d) {
		s += d[k]
	}
	if s == 0 {
		return
	}
	for k := range d {
		d[k] /= s
	}
}

func sortedDistKeys(d map[bitvec.Vec]float64) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sortVecs(out)
	return out
}

func sortedCountKeys(d map[bitvec.Vec]int) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sortVecs(out)
	return out
}
