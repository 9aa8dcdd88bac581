package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/problems"
	"rasengan/internal/service"
	"rasengan/internal/store"
)

// Persist measures the checkpoint subsystem: the wall-clock cost of
// per-iteration checkpointing (a crash-safe slot write at every
// optimizer iteration boundary) against the same solve with checkpointing off,
// and the bit-identity contract — a solve interrupted mid-run and
// resumed from its last checkpoint must serialize to the byte-identical
// wire payload of the uninterrupted run. The acceptance bar is <2%
// enabled overhead; CI records this output as BENCH_PR7.json.

// PersistCase is one instance's measurement.
type PersistCase struct {
	Problem          string  `json:"problem"`
	Vars             int     `json:"vars"`
	Iterations       int     `json:"iterations"`
	BaselineMS       float64 `json:"baseline_ms"`
	CheckpointMS     float64 `json:"checkpoint_ms"`
	OverheadPct      float64 `json:"overhead_pct"`
	Checkpoints      int     `json:"checkpoints_written"`
	PayloadIdentical bool    `json:"payload_identical"`
	ResumeIdentical  bool    `json:"resume_identical"`
}

// PersistResult aggregates the persistence-overhead experiment.
type PersistResult struct {
	Cases          []PersistCase `json:"cases"`
	MaxOverheadPct float64       `json:"max_overhead_pct"`
	AllIdentical   bool          `json:"all_identical"`
}

// Render prints the measurement table.
func (r *PersistResult) Render() string {
	rows := make([][]string, 0, len(r.Cases))
	for _, c := range r.Cases {
		rows = append(rows, []string{
			c.Problem, fmt.Sprintf("%d", c.Vars), fmt.Sprintf("%d", c.Iterations),
			fmt.Sprintf("%.1f", c.BaselineMS), fmt.Sprintf("%.1f", c.CheckpointMS),
			fmt.Sprintf("%+.2f%%", c.OverheadPct), fmt.Sprintf("%d", c.Checkpoints),
			fmt.Sprintf("%v", c.PayloadIdentical), fmt.Sprintf("%v", c.ResumeIdentical),
		})
	}
	out := renderTable([]string{"problem", "vars", "iters", "base ms", "ckpt ms", "overhead", "writes", "identical", "resume"}, rows)
	return out + fmt.Sprintf("\nmax overhead %.2f%%, identity %v (bar: <2%% overhead, all identical)\n",
		r.MaxOverheadPct, r.AllIdentical)
}

// persistLabels are the instances measured: scale-3 benchmarks solved
// against a noisy device model, so per-iteration simulation work is
// second-scale — representative of the real solves worth
// checkpointing. (A sub-millisecond toy solve would make any disk
// write look enormous relative to it; nobody checkpoints those.)
var persistLabels = []string{"F3", "K3", "S3"}

// Persist runs the persistence-overhead experiment.
func Persist(cfg Config) (*PersistResult, error) {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp("", "rasengan-persist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out := &PersistResult{AllIdentical: true}
	for _, label := range persistLabels {
		b, err := problems.ByLabel(label)
		if err != nil {
			return nil, err
		}
		p := b.Generate(0)
		opts := core.Options{MaxIter: cfg.MaxIter, Seed: cfg.Seed, Telemetry: cfg.telemetry()}
		opts.Exec.Shots = 512
		opts.Exec.Device = device.Quebec()
		opts.Exec.Trajectories = cfg.Trajectories

		// Warm once (schedule caches, allocator), then take the best of
		// three alternating runs per mode so background noise cannot bias
		// one side.
		if _, err := core.Solve(cfg.ctx(), p, opts); err != nil {
			return nil, fmt.Errorf("persist %s: %w", label, err)
		}
		path := filepath.Join(dir, label+".ckpt")
		// The measured sink is the production one: the slot-alternating
		// CheckpointWriter rasengan-solve wires behind -checkpoint.
		cw, err := store.OpenCheckpointWriter(path)
		if err != nil {
			return nil, err
		}
		writes := 0
		ckOpts := opts
		ckOpts.Checkpoint = &core.CheckpointOptions{
			Every: 1,
			Write: func(data []byte) error {
				writes++
				return cw.Write(data)
			},
		}
		var base, ck time.Duration
		var basePayload, ckPayload []byte
		var iterations int
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res, err := core.Solve(cfg.ctx(), p, opts)
			if err != nil {
				return nil, fmt.Errorf("persist %s: %w", label, err)
			}
			if d := time.Since(start); rep == 0 || d < base {
				base = d
			}
			iterations = res.Iterations
			if basePayload == nil {
				if basePayload, err = service.MarshalResultPayload(p, res); err != nil {
					return nil, err
				}
			}

			start = time.Now()
			cres, err := core.Solve(cfg.ctx(), p, ckOpts)
			if err != nil {
				return nil, fmt.Errorf("persist %s checkpointed: %w", label, err)
			}
			if d := time.Since(start); rep == 0 || d < ck {
				ck = d
			}
			if ckPayload == nil {
				if ckPayload, err = service.MarshalResultPayload(p, cres); err != nil {
					return nil, err
				}
			}
		}

		if err := cw.Close(); err != nil {
			return nil, fmt.Errorf("persist %s: %w", label, err)
		}
		c := PersistCase{
			Problem:          p.Name,
			Vars:             p.N,
			Iterations:       iterations,
			BaselineMS:       float64(base.Microseconds()) / 1000,
			CheckpointMS:     float64(ck.Microseconds()) / 1000,
			OverheadPct:      100 * (ck.Seconds() - base.Seconds()) / base.Seconds(),
			Checkpoints:      writes,
			PayloadIdentical: bytes.Equal(basePayload, ckPayload),
		}
		c.ResumeIdentical, err = resumeIdentity(cfg, p, opts, basePayload)
		if err != nil {
			return nil, fmt.Errorf("persist %s resume: %w", label, err)
		}
		if c.OverheadPct > out.MaxOverheadPct {
			out.MaxOverheadPct = c.OverheadPct
		}
		out.AllIdentical = out.AllIdentical && c.PayloadIdentical && c.ResumeIdentical
		out.Cases = append(out.Cases, c)
	}
	return out, nil
}

// resumeIdentity interrupts a checkpointed solve partway through,
// resumes from the last checkpoint written before the interrupt, and
// reports whether the resumed payload is byte-identical to the
// uninterrupted run's.
func resumeIdentity(cfg Config, p *problems.Problem, opts core.Options, want []byte) (bool, error) {
	ctx, cancel := context.WithCancel(cfg.ctx())
	defer cancel()
	var snaps [][]byte
	interrupted := opts
	interrupted.Checkpoint = &core.CheckpointOptions{
		Every: 1,
		Write: func(data []byte) error {
			snaps = append(snaps, append([]byte(nil), data...))
			if len(snaps) == 4 {
				cancel() // interrupt a few iterations in
			}
			return nil
		},
	}
	if _, err := core.Solve(ctx, p, interrupted); err == nil {
		// The solve beat the cancel (too few iterations to interrupt);
		// fall back to resuming from a mid-run snapshot.
		if len(snaps) < 2 {
			return false, fmt.Errorf("no mid-run checkpoint captured")
		}
	}
	ck, err := core.ParseCheckpoint(snaps[len(snaps)-1])
	if err != nil {
		return false, err
	}
	resumed := opts
	resumed.Resume = ck
	res, err := core.Solve(cfg.ctx(), p, resumed)
	if err != nil {
		return false, err
	}
	got, err := service.MarshalResultPayload(p, res)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}
