package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
)

// enginePair builds two executors over the same problem and schedule that
// differ only in ForceMapEngine.
func enginePair(t *testing.T, p *problems.Problem, opts ExecOptions) (mapEx, compEx *Executor) {
	t.Helper()
	ops := mustBasisAndSchedule(t, p)
	mo := opts
	mo.ForceMapEngine = true
	var err error
	if mapEx, err = NewExecutor(p, ops, mo); err != nil {
		t.Fatal(err)
	}
	if compEx, err = NewExecutor(p, ops, opts); err != nil {
		t.Fatal(err)
	}
	if mapEx.EngineUsed != EngineMap {
		t.Fatalf("map executor reports engine %q", mapEx.EngineUsed)
	}
	if compEx.EngineUsed != EngineCompiled {
		t.Fatalf("compiled executor fell back to %q: %s", compEx.EngineUsed, compEx.EngineFallbackReason)
	}
	return mapEx, compEx
}

func runBoth(t *testing.T, mapEx, compEx *Executor, seed int64) (dm, dc map[bitvec.Vec]float64) {
	t.Helper()
	times := make([]float64, mapEx.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	var err error
	if dm, err = mapEx.Run(times, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	if dc, err = compEx.Run(times, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return dm, dc
}

// TestCompiledEngineBitIdenticalExact: on the exact path the two engines
// must produce byte-identical distributions — same support, same float64
// probabilities, no tolerance.
func TestCompiledEngineBitIdenticalExact(t *testing.T) {
	for _, p := range []*problems.Problem{
		problems.FLP(2, 1),
		problems.SCP(4, 0),
		problems.KPP(3, 0),
	} {
		mapEx, compEx := enginePair(t, p, ExecOptions{})
		dm, dc := runBoth(t, mapEx, compEx, 11)
		if len(dm) != len(dc) {
			t.Fatalf("%s: support %d (map) vs %d (compiled)", p.Name, len(dm), len(dc))
		}
		for x, pm := range dm {
			if pc, ok := dc[x]; !ok || pc != pm {
				t.Fatalf("%s: state %v: map %v vs compiled %v", p.Name, x, pm, dc[x])
			}
		}
	}
}

// TestCompiledEngineBitIdenticalSampled: the sampled path consumes the rng
// in the same order on both engines, so equal seeds give equal counts and
// therefore bit-identical distributions — including under shot growth.
func TestCompiledEngineBitIdenticalSampled(t *testing.T) {
	p := problems.FLP(2, 0)
	mapEx, compEx := enginePair(t, p, ExecOptions{Shots: 512, OpsPerSegment: 1, ShotGrowth: 2, MaxShotsPerSegment: 4096})
	dm, dc := runBoth(t, mapEx, compEx, 23)
	if len(dm) != len(dc) {
		t.Fatalf("support %d (map) vs %d (compiled)", len(dm), len(dc))
	}
	for x, pm := range dm {
		if dc[x] != pm {
			t.Fatalf("state %v: map %v vs compiled %v", x, pm, dc[x])
		}
	}
	if mapEx.LastShotsUsed != compEx.LastShotsUsed ||
		mapEx.LastFeasibleShots != compEx.LastFeasibleShots ||
		mapEx.LastMeasuredShots != compEx.LastMeasuredShots {
		t.Fatalf("shot accounting diverges: map (%d,%d,%d) vs compiled (%d,%d,%d)",
			mapEx.LastShotsUsed, mapEx.LastFeasibleShots, mapEx.LastMeasuredShots,
			compEx.LastShotsUsed, compEx.LastFeasibleShots, compEx.LastMeasuredShots)
	}
}

// TestRunEnergyMatchesDistribution: RunEnergyCtx must equal the expected
// score of the distribution Run returns, on both engines, and
// LastDistribution must reproduce that distribution exactly.
func TestRunEnergyMatchesDistribution(t *testing.T) {
	p := problems.SCP(4, 0)
	mapEx, compEx := enginePair(t, p, ExecOptions{})
	times := make([]float64, mapEx.NumParams())
	for i := range times {
		times[i] = 0.8
	}
	for _, ex := range []*Executor{mapEx, compEx} {
		dist, err := ex.Run(times, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for x, v := range dist {
			want += v * p.ScoreMin(x)
		}
		got, err := ex.RunEnergyCtx(context.Background(), times, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("engine %s: RunEnergy %v vs expected score %v", ex.EngineUsed, got, want)
		}
		last := ex.LastDistribution()
		if len(last) != len(dist) {
			t.Fatalf("engine %s: LastDistribution support %d vs %d", ex.EngineUsed, len(last), len(dist))
		}
		for x, v := range dist {
			if last[x] != v {
				t.Fatalf("engine %s: LastDistribution[%v] = %v, want %v", ex.EngineUsed, x, last[x], v)
			}
		}
	}
}

// TestNoisyDeviceRunsCompiled: noise channels run on the compiled engine,
// so a noisy device selects it without a fallback reason, like a noiseless
// one; only ForceMapEngine selects the map engine, and it records no
// fallback either.
func TestNoisyDeviceRunsCompiled(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	for _, dev := range []*device.Device{device.Kyiv(), device.Noiseless(p.N)} {
		ex, err := NewExecutor(p, ops, ExecOptions{Device: dev, Shots: 64})
		if err != nil {
			t.Fatal(err)
		}
		if ex.EngineUsed != EngineCompiled || ex.EngineFallbackReason != "" {
			t.Fatalf("%s: engine %q, fallback %q", dev.Name, ex.EngineUsed, ex.EngineFallbackReason)
		}
	}
	ex, err := NewExecutor(p, ops, ExecOptions{Device: device.Kyiv(), Shots: 64, ForceMapEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EngineUsed != EngineMap {
		t.Fatalf("ForceMapEngine ran engine %q", ex.EngineUsed)
	}
	if ex.EngineFallbackReason != "" {
		t.Fatalf("ForceMapEngine recorded a fallback reason: %s", ex.EngineFallbackReason)
	}
}

// hotDevice is a synthetic noise model with rates high enough that X/Y
// errors and both damping jumps strike every few operators, so noisy runs
// move trajectories through many derived spaces.
func hotDevice() *device.Device {
	d := device.Quebec()
	d.Name = "hot"
	d.Noise = quantum.NoiseModel{
		OneQubitDepol:    0.01,
		TwoQubitDepol:    0.05,
		AmplitudeDamping: 0.02,
		PhaseDamping:     0.02,
		ReadoutError:     0.03,
	}
	return d
}

// assertNoisyIdentical runs both executors with equal seeds and requires
// byte-identical distributions, energies, shot accounting and errors (a
// noisy run can purify every state away).
func assertNoisyIdentical(t *testing.T, name string, mapEx, compEx *Executor, seed int64) {
	t.Helper()
	times := make([]float64, mapEx.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	dm, errM := mapEx.Run(times, rand.New(rand.NewSource(seed)))
	dc, errC := compEx.Run(times, rand.New(rand.NewSource(seed)))
	if fmt.Sprint(errM) != fmt.Sprint(errC) {
		t.Fatalf("%s seed %d: map error %v, compiled error %v", name, seed, errM, errC)
	}
	if len(dm) != len(dc) {
		t.Fatalf("%s seed %d: support %d (map) vs %d (compiled)", name, seed, len(dm), len(dc))
	}
	for x, pm := range dm {
		if pc, ok := dc[x]; !ok || pc != pm {
			t.Fatalf("%s seed %d: state %v: map %v vs compiled %v", name, seed, x, pm, dc[x])
		}
	}
	if mapEx.LastShotsUsed != compEx.LastShotsUsed ||
		mapEx.LastFeasibleShots != compEx.LastFeasibleShots ||
		mapEx.LastMeasuredShots != compEx.LastMeasuredShots ||
		mapEx.LastQuantumNS != compEx.LastQuantumNS {
		t.Fatalf("%s seed %d: shot accounting diverges: map (%d,%d,%d) vs compiled (%d,%d,%d)", name, seed,
			mapEx.LastShotsUsed, mapEx.LastFeasibleShots, mapEx.LastMeasuredShots,
			compEx.LastShotsUsed, compEx.LastFeasibleShots, compEx.LastMeasuredShots)
	}
	for i := range times {
		times[i] = 0.4 + 0.11*float64(i%5)
	}
	em, errM := mapEx.RunEnergy(times, rand.New(rand.NewSource(seed+100)))
	ec, errC := compEx.RunEnergy(times, rand.New(rand.NewSource(seed+100)))
	if em != ec || fmt.Sprint(errM) != fmt.Sprint(errC) {
		t.Fatalf("%s seed %d: energy map %v (%v) vs compiled %v (%v)", name, seed, em, errM, ec, errC)
	}
	lm, lc := mapEx.LastDistribution(), compEx.LastDistribution()
	if len(lm) != len(lc) {
		t.Fatalf("%s seed %d: LastDistribution support %d vs %d", name, seed, len(lm), len(lc))
	}
	for x, v := range lm {
		if lc[x] != v {
			t.Fatalf("%s seed %d: LastDistribution[%v] = %v, want %v", name, seed, x, lc[x], v)
		}
	}
}

// TestCompiledEngineBitIdenticalNoisy: compiled noisy trajectories consume
// the rng in the map engine's order and run the same float operations, so
// every distribution, energy and shot count is byte-identical — on the
// Quebec model and on a high-rate model whose X/Y errors and damping jumps
// move trajectories into derived spaces, with and without purification
// (which lets outcomes outside the init closure seed later segments), and
// in one unsegmented circuit.
func TestCompiledEngineBitIdenticalNoisy(t *testing.T) {
	cfgs := []ExecOptions{
		{Shots: 512},
		{Shots: 256, DisablePurify: true},
		{Shots: 128, ShotGrowth: 2, MaxShotsPerSegment: 1024, Trajectories: 3, OpsPerSegment: 2},
		// One segment: noise strikes mid-circuit, so a wrong phase (a
		// mishandled Z or Y) changes later interference, not just a
		// global phase before measurement.
		{Shots: 256, DisableSegmentation: true},
	}
	for _, p := range []*problems.Problem{problems.FLP(2, 0), problems.KPP(2, 1), problems.SCP(2, 0), problems.FLP(3, 0)} {
		for _, dev := range []*device.Device{device.Quebec(), hotDevice()} {
			for ci, cfg := range cfgs {
				cfg.Device = dev
				mapEx, compEx := enginePair(t, p, cfg)
				name := p.Name + "/" + dev.Name + "/cfg" + string(rune('0'+ci))
				for seed := int64(1); seed <= 3; seed++ {
					assertNoisyIdentical(t, name, mapEx, compEx, seed)
				}
				if dev.Name == "hot" && len(compEx.plan.exc.nodes) == 0 {
					t.Fatalf("%s: no trajectory left the init closure", name)
				}
				if cfg.DisablePurify && dev.Name == "hot" && len(compEx.plan.exc.seeds) == 0 {
					t.Fatalf("%s: no segment seed outside the init closure", name)
				}
			}
		}
	}
}

// TestNoisyExcursionBudgetFallback: once the excursion budget is spent, a
// trajectory that needs a new space finishes on the map engine mid-segment
// — or starts there, for a seed outside every space — with the same floats.
func TestNoisyExcursionBudgetFallback(t *testing.T) {
	p := problems.FLP(2, 0)
	for _, budget := range []int{0, 30} {
		mapEx, compEx := enginePair(t, p, ExecOptions{Device: hotDevice(), Shots: 256, DisablePurify: true})
		compEx.plan.exc.budget = budget
		for seed := int64(1); seed <= 3; seed++ {
			assertNoisyIdentical(t, "budget", mapEx, compEx, seed)
		}
		if states := compEx.plan.exc.states; states > budget {
			t.Fatalf("budget %d: derived spaces hold %d states", budget, states)
		}
	}
}

// TestNoisyClonesShareExcursions: clones of one executor fill the shared
// excursion memo concurrently and still agree with the map engine.
func TestNoisyClonesShareExcursions(t *testing.T) {
	p := problems.KPP(2, 0)
	mapEx, compEx := enginePair(t, p, ExecOptions{Device: hotDevice(), Shots: 256})
	times := make([]float64, mapEx.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	want, err := mapEx.RunEnergy(times, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range got {
		cl := compEx.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = cl.RunEnergy(times, rand.New(rand.NewSource(9)))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Fatalf("clone %d: energy %v (%v), map engine %v", i, got[i], errs[i], want)
		}
	}
}

// TestNoisyRunEnergyZeroAllocs is the steady-state allocation guard of the
// noisy compiled path: once a warm-up call with the same times and seed has
// compiled every excursion space and grown every buffer, a noisy F3
// objective evaluation allocates nothing.
func TestNoisyRunEnergyZeroAllocs(t *testing.T) {
	p := problems.FLP(3, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{Device: device.Quebec(), Shots: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EngineUsed != EngineCompiled {
		t.Fatalf("noisy F3 ran engine %q: %s", ex.EngineUsed, ex.EngineFallbackReason)
	}
	times := make([]float64, ex.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	run := func() {
		rng.Seed(7)
		if _, err := ex.RunEnergyCtx(ctx, times, rng); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: compiles the excursion spaces this seed visits
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("noisy RunEnergyCtx allocates %v times per call; want 0", allocs)
	}
}

// TestEngineExcludedFromFingerprint: both engines are bit-identical, so
// forcing the map engine must not split the result cache, mirroring worker
// count.
func TestEngineExcludedFromFingerprint(t *testing.T) {
	a := Options{Exec: ExecOptions{ForceMapEngine: true}}
	b := Options{Exec: ExecOptions{}}
	ja := CanonicalOptionsJSON(a)
	jb := CanonicalOptionsJSON(b)
	if string(ja) != string(jb) {
		t.Fatalf("engine leaks into the options fingerprint:\n%s\nvs\n%s", ja, jb)
	}
}

// TestCompiledCloneIndependent: clones share the immutable plan but own
// their runtime state, so concurrent-style interleaved runs don't bleed.
func TestCompiledCloneIndependent(t *testing.T) {
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := ex.Clone()
	if cl.plan != ex.plan {
		t.Fatal("clone rebuilt the compiled plan")
	}
	times := make([]float64, ex.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	d1, err := ex.Run(times, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cl.Run(times, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for x, v := range d1 {
		if d2[x] != v {
			t.Fatalf("clone diverges at %v: %v vs %v", x, d2[x], v)
		}
	}
}

// TestCompiledRunCancelled: a pre-cancelled context must abort the compiled
// path with the context's error, same as the map path.
func TestCompiledRunCancelled(t *testing.T) {
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EngineUsed != EngineCompiled {
		t.Fatalf("expected compiled engine, got %q", ex.EngineUsed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	times := make([]float64, ex.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	if _, err := ex.RunCtx(ctx, times, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("cancelled context did not abort the compiled run")
	}
}
