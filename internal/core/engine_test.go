package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/problems"
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

// TestCompiledFallsBackOnNoisyDevice: noise channels can leave the feasible
// subspace, so a noisy device must silently select the map engine and say
// why.
func TestCompiledFallsBackOnNoisyDevice(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{Device: device.Kyiv(), Shots: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EngineUsed != EngineMap {
		t.Fatalf("noisy device ran engine %q", ex.EngineUsed)
	}
	if ex.EngineFallbackReason == "" {
		t.Fatal("fallback reason not recorded")
	}
	// A noiseless device keeps the compiled engine.
	ex2, err := NewExecutor(p, ops, ExecOptions{Device: device.Noiseless(p.N), Shots: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ex2.EngineUsed != EngineCompiled {
		t.Fatalf("noiseless device fell back to %q: %s", ex2.EngineUsed, ex2.EngineFallbackReason)
	}
	// ForceMapEngine on a noise-free executor runs the map engine by
	// request, not as a fallback: this is the path the verify oracle takes.
	ex3, err := NewExecutor(p, ops, ExecOptions{Device: device.Noiseless(p.N), Shots: 64, ForceMapEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	if ex3.EngineUsed != EngineMap {
		t.Fatalf("ForceMapEngine ran engine %q", ex3.EngineUsed)
	}
	if ex3.EngineFallbackReason != "" {
		t.Fatalf("ForceMapEngine recorded a fallback reason: %s", ex3.EngineFallbackReason)
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
