package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// Budget measures the shared worker-budget scheduler against the design
// it replaced: per-job worker pools that multiply under concurrent load.
// Eight jobs run three ways on a fixed GOMAXPROCS — solo (the identity
// reference), concurrently with a private Fixed pool each (the old
// oversubscribing design, aggregate demand jobs x width), and
// concurrently under one waterfilling Budget whose outstanding grants
// never exceed the budget total. The acceptance bar is leased aggregate
// throughput no worse than the oversubscribed run while every leased
// payload stays byte-identical to its solo run; CI records this output
// as BENCH_PR8.json.

// BudgetCase is one job's measurement across the three runs.
type BudgetCase struct {
	Problem   string  `json:"problem"`
	Case      int     `json:"case"`
	Seed      int64   `json:"seed"`
	SoloMS    float64 `json:"solo_ms"`
	Identical bool    `json:"payload_identical"`
}

// BudgetResult aggregates the compute-budget experiment.
type BudgetResult struct {
	GOMAXPROCS        int          `json:"gomaxprocs"`
	Jobs              int          `json:"jobs"`
	Budget            int          `json:"worker_budget"`
	Cases             []BudgetCase `json:"cases"`
	SoloTotalMS       float64      `json:"solo_total_ms"`
	OversubWallMS     float64      `json:"oversubscribed_wall_ms"`
	LeasedWallMS      float64      `json:"leased_wall_ms"`
	ThroughputRatio   float64      `json:"throughput_ratio_oversub_over_leased"`
	OversubPeakDemand int          `json:"oversubscribed_peak_worker_demand"`
	LeasedPeakGranted int          `json:"leased_peak_granted"`
	LeasedPeakActive  int          `json:"leased_peak_active"`
	AllIdentical      bool         `json:"all_identical"`
}

// Render prints the measurement table.
func (r *BudgetResult) Render() string {
	rows := make([][]string, 0, len(r.Cases))
	for _, c := range r.Cases {
		rows = append(rows, []string{
			fmt.Sprintf("%s/case%d", c.Problem, c.Case), fmt.Sprintf("%d", c.Seed),
			fmt.Sprintf("%.1f", c.SoloMS), fmt.Sprintf("%v", c.Identical),
		})
	}
	out := renderTable([]string{"problem", "seed", "solo ms", "identical"}, rows)
	out += fmt.Sprintf("\n%d jobs, budget %d, GOMAXPROCS %d\n", r.Jobs, r.Budget, r.GOMAXPROCS)
	out += fmt.Sprintf("oversubscribed (per-job pools, demand %d): %.1f ms wall\n",
		r.OversubPeakDemand, r.OversubWallMS)
	out += fmt.Sprintf("leased (shared budget, peak granted %d): %.1f ms wall (ratio %.2fx)\n",
		r.LeasedPeakGranted, r.LeasedWallMS, r.ThroughputRatio)
	out += fmt.Sprintf("identity %v (bar: ratio >= ~1, granted <= max(budget, jobs), all identical)\n", r.AllIdentical)
	return out
}

// budgetJob is one of the concurrent solves: a problem instance plus
// the seed that makes its payload unique.
type budgetJob struct {
	label   string
	caseIdx int
	p       *problems.Problem
	opts    core.Options
}

// Budget runs the compute-budget scheduling experiment.
func Budget(cfg Config) (*BudgetResult, error) {
	cfg = cfg.withDefaults()
	const budgetTotal = 2

	// Eight distinct jobs: FLP scale-1 cases 0-3 under two seeds each,
	// solved against the noisy quebec device model so each job runs long
	// enough (hundreds of ms) for the concurrent phases to overlap
	// heavily — a burst of toy solves would finish before contending.
	b, err := problems.ByLabel("F1")
	if err != nil {
		return nil, err
	}
	var jobs []budgetJob
	for caseIdx := 0; caseIdx < 4; caseIdx++ {
		p := b.Generate(caseIdx)
		for _, seed := range []int64{1, 2} {
			opts := core.Options{MaxIter: cfg.MaxIter, Seed: seed, Telemetry: cfg.telemetry()}
			opts.Exec.Shots = 256
			opts.Exec.Device = device.Quebec()
			opts.Exec.Trajectories = cfg.Trajectories
			jobs = append(jobs, budgetJob{label: "F1", caseIdx: caseIdx, p: p, opts: opts})
		}
	}

	out := &BudgetResult{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Jobs:              len(jobs),
		Budget:            budgetTotal,
		OversubPeakDemand: len(jobs) * budgetTotal,
		AllIdentical:      true,
	}

	// Solo reference: every job alone, default full-width pool. These
	// payloads are the identity oracle — the determinism contract says
	// worker count (and mid-solve lease resizes) must not change them.
	solo := make([][]byte, len(jobs))
	for i, j := range jobs {
		start := time.Now()
		res, err := core.Solve(cfg.ctx(), j.p, j.opts)
		if err != nil {
			return nil, fmt.Errorf("budget solo %s/case%d: %w", j.label, j.caseIdx, err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		if solo[i], err = service.MarshalResultPayload(j.p, res); err != nil {
			return nil, err
		}
		out.SoloTotalMS += ms
		out.Cases = append(out.Cases, BudgetCase{
			Problem: j.label, Case: j.caseIdx, Seed: j.opts.Seed, SoloMS: ms, Identical: true,
		})
	}

	// Oversubscribed: the pre-lease design. Each concurrent job brings
	// its own Fixed pool, so aggregate demand is jobs x budget — on a
	// small GOMAXPROCS that is pure scheduler churn.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j budgetJob) {
			defer wg.Done()
			opts := j.opts
			opts.Workers = parallel.Fixed(budgetTotal)
			_, errs[i] = core.Solve(cfg.ctx(), j.p, opts)
		}(i, j)
	}
	wg.Wait()
	out.OversubWallMS = float64(time.Since(start).Microseconds()) / 1e3
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("budget oversubscribed: %w", err)
		}
	}

	// Leased: same eight jobs under one waterfilling budget. Grants are
	// sampled at every acquire (synchronously, so saturation is always
	// observed) and on a fast ticker, recording that outstanding grants
	// stayed within the global budget at every observed instant.
	budget := parallel.NewBudget(budgetTotal)
	var peakMu sync.Mutex
	record := func() {
		peakMu.Lock()
		defer peakMu.Unlock()
		if g := budget.Granted(); g > out.LeasedPeakGranted {
			out.LeasedPeakGranted = g
		}
		if a := budget.Active(); a > out.LeasedPeakActive {
			out.LeasedPeakActive = a
		}
	}
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				record()
			}
		}
	}()
	leased := make([][]byte, len(jobs))
	start = time.Now()
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j budgetJob) {
			defer wg.Done()
			lease := budget.Acquire()
			defer lease.Release()
			record()
			opts := j.opts
			opts.Workers = lease
			res, err := core.Solve(cfg.ctx(), j.p, opts)
			if err != nil {
				errs[i] = err
				return
			}
			leased[i], errs[i] = service.MarshalResultPayload(j.p, res)
		}(i, j)
	}
	wg.Wait()
	out.LeasedWallMS = float64(time.Since(start).Microseconds()) / 1e3
	close(stopSample)
	sampleWG.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("budget leased: %w", err)
		}
	}

	for i := range jobs {
		identical := bytes.Equal(solo[i], leased[i])
		out.Cases[i].Identical = identical
		if !identical {
			out.AllIdentical = false
		}
	}
	if out.LeasedWallMS > 0 {
		out.ThroughputRatio = out.OversubWallMS / out.LeasedWallMS
	}
	return out, nil
}
