// Package rasengan is a Go implementation of Rasengan, the transition-
// Hamiltonian approximation algorithm for constrained binary optimization
// (MICRO 2025), together with the substrates it depends on: exact linear
// algebra for homogeneous bases, dense and sparse statevector simulators,
// NISQ noise models, heavy-hex device models, derivative-free optimizers,
// and the baselines the paper compares against (HEA, P-QAOA with
// FrozenQubits/Red-QAOA, Choco-Q).
//
// The quickest path from a problem to a solution:
//
//	p := rasengan.NewFacilityLocation(rasengan.FLPConfig{Demands: 2, Facilities: 2}, 1)
//	res, err := rasengan.Solve(p, rasengan.SolveOptions{})
//	if err != nil { ... }
//	fmt.Println(res.BestSolution, res.BestValue)
//
// Solve runs the full pipeline of the paper: homogeneous-basis
// construction, Hamiltonian simplification (Algorithm 1), schedule
// pruning with early stop, segmented execution, purification-based error
// mitigation, and COBYLA tuning of the evolution times. The zero
// SolveOptions value enables every optimization on the exact noise-free
// simulator; set Exec.Device to a device model for noisy execution.
package rasengan

import (
	"context"

	"rasengan/internal/baselines"
	"rasengan/internal/bitvec"
	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/qasm"
	"rasengan/internal/quantum"
)

// Solution is a candidate assignment of the binary decision variables;
// bit i is variable x_i. It prints as a 0/1 string.
type Solution = bitvec.Vec

// NewSolution returns the all-zeros assignment over n variables.
func NewSolution(n int) Solution { return bitvec.New(n) }

// ParseSolution parses a "0101..."-style assignment.
func ParseSolution(s string) (Solution, error) { return bitvec.FromString(s) }

// Problem is a constrained binary optimization instance
// (min/max f(x) s.t. C·x = b, x binary).
type Problem = problems.Problem

// Reference is the exact reference answer of an instance (optimum,
// feasible count, mean feasible objective).
type Reference = problems.Reference

// SolveOptions configures the Rasengan pipeline; see core.Options for the
// per-stage switches (basis construction, schedule pruning, segmented
// execution, purification, optimizer budget).
type SolveOptions = core.Options

// Result is the outcome of a Rasengan solve: best solution, expectation,
// final distribution, circuit metrics, and the latency breakdown.
type Result = core.Result

// ExecOptions configures segmented execution (shots, segmentation,
// purification, device noise).
type ExecOptions = core.ExecOptions

// BasisOptions configures homogeneous-basis construction (Algorithm 1
// simplification, ternary kernel search budgets).
type BasisOptions = core.BasisOptions

// ScheduleOptions configures transition-schedule construction (rounds,
// pruning, early stop).
type ScheduleOptions = core.ScheduleOptions

// Solve runs the full Rasengan pipeline on p. It is SolveContext with
// context.Background(): it cannot be cancelled from outside.
func Solve(p *Problem, opts SolveOptions) (*Result, error) {
	return core.Solve(context.Background(), p, opts)
}

// SolveContext runs the full Rasengan pipeline on p under ctx.
// Cancellation is cooperative — checked at every optimizer iteration,
// executor segment, and simulator chunk — and returns ctx.Err()
// (context.Canceled or context.DeadlineExceeded) within one boundary's
// worth of work. Panics anywhere in the solve are recovered and returned
// as an error matching errors.Is(err, ErrSolvePanic) instead of crashing
// the caller.
func SolveContext(ctx context.Context, p *Problem, opts SolveOptions) (*Result, error) {
	return core.Solve(ctx, p, opts)
}

// ErrSolvePanic matches (via errors.Is) errors produced when a solve
// panicked internally and was recovered at the Solve boundary; the
// concrete error carries the panic message and the panicking goroutine's
// stack.
var ErrSolvePanic = core.ErrSolvePanic

// CheckpointOptions turns on mid-solve checkpoint export via
// SolveOptions.Checkpoint: the solver periodically hands a complete,
// self-validating checkpoint file to the Write callback. Checkpointing
// observes the solve and never steers it — payloads are bit-identical
// with or without it.
type CheckpointOptions = core.CheckpointOptions

// Checkpoint is a parsed mid-solve checkpoint; assign it to
// SolveOptions.Resume to continue an interrupted solve. The resumed run
// skips basis construction and the dry run (the checkpoint carries the
// serialized pruned schedule) and produces a result payload
// byte-identical to the uninterrupted run's.
type Checkpoint = core.Checkpoint

// CheckpointVersion is the current checkpoint file format version;
// files written by a newer version are rejected by ParseCheckpoint.
const CheckpointVersion = core.CheckpointVersion

// ParseCheckpoint decodes a checkpoint file previously produced through
// CheckpointOptions.Write.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	return core.ParseCheckpoint(data)
}

// TraceRecorder collects stage spans from one or more solves. Attach one
// via SolveOptions.Telemetry.Spans, then export it with its
// WriteChromeTraceFile method (loadable in chrome://tracing or Perfetto)
// or aggregate per-stage totals with StageTotals. Telemetry observes and
// never steers: results are bit-identical with or without a recorder.
type TraceRecorder = obs.Recorder

// NewTraceRecorder returns a recorder whose clock is monotonic time since
// creation.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// TelemetryOptions switches on a solve's observability surfaces (stage
// spans and per-iteration convergence records); see SolveOptions.Telemetry.
type TelemetryOptions = core.TelemetryOptions

// IterationTelemetry is one per-iteration convergence record
// (Result.Convergence): best energy so far, running ARG when the optimum
// is known, parameter norm, and elapsed wall time.
type IterationTelemetry = core.IterationTelemetry

// CoverageReport says how much of a problem's feasible space the
// constructed transition pool connects.
type CoverageReport = core.CoverageReport

// VerifyCoverage checks Theorem 1 on a concrete instance: whether the
// transition-Hamiltonian pool reaches the whole feasible space from the
// seed. Run it before trusting a solve on a new problem encoding.
func VerifyCoverage(p *Problem, opts BasisOptions) (CoverageReport, error) {
	return core.VerifyCoverage(p, opts)
}

// ExactReference computes the exact optimum and feasible-space statistics
// by exhaustive enumeration (practical up to roughly 26 variables).
func ExactReference(p *Problem) (Reference, error) {
	return problems.ExactReference(p)
}

// ARG is the approximation ratio gap |(E_opt − E_real)/E_opt| of the
// paper's Equation 9 — lower is better.
func ARG(eOpt, eReal float64) float64 {
	return metrics.ARG(eOpt, eReal)
}

// Device models a quantum platform (topology, noise, timing) for noisy
// execution and latency accounting.
type Device = device.Device

// DeviceKyiv returns the IBM-Kyiv-like 127-qubit model (2q error 1.2%).
func DeviceKyiv() *Device { return device.Kyiv() }

// DeviceBrisbane returns the IBM-Brisbane-like model (2q error 0.82%).
func DeviceBrisbane() *Device { return device.Brisbane() }

// DeviceQuebec returns the Quebec-like model the paper compiles against.
func DeviceQuebec() *Device { return device.Quebec() }

// BaselineOptions configures the comparison baselines.
type BaselineOptions = baselines.Options

// BaselineResult is the shared result shape of the baselines.
type BaselineResult = baselines.Result

// SolveHEA runs the hardware-efficient ansatz baseline.
func SolveHEA(p *Problem, opts BaselineOptions) (*BaselineResult, error) {
	return baselines.HEA(p, opts)
}

// SolvePQAOA runs the penalty-term QAOA baseline.
func SolvePQAOA(p *Problem, opts BaselineOptions) (*BaselineResult, error) {
	return baselines.PQAOA(p, opts)
}

// SolveChocoQ runs the commute-Hamiltonian QAOA baseline.
func SolveChocoQ(p *Problem, opts BaselineOptions) (*BaselineResult, error) {
	return baselines.ChocoQ(p, opts)
}

// SolveFrozenQubits runs P-QAOA with the FrozenQubits refinement.
func SolveFrozenQubits(p *Problem, numFrozen int, opts BaselineOptions) (*BaselineResult, error) {
	return baselines.FrozenQubits(p, numFrozen, opts)
}

// SolveRedQAOA runs P-QAOA with the Red-QAOA warm-start refinement.
func SolveRedQAOA(p *Problem, opts BaselineOptions) (*BaselineResult, error) {
	return baselines.RedQAOA(p, opts)
}

// SolveGroverAdaptive runs the Grover adaptive search alternative the
// paper's related work discusses ([18]): exact-oracle amplitude
// amplification with a ratcheting threshold. Dense-simulation widths only.
func SolveGroverAdaptive(p *Problem, opts BaselineOptions) (*BaselineResult, error) {
	return baselines.GroverAdaptive(p, opts)
}

// SolveSimulatedAnnealing runs the classical Metropolis-annealing
// reference on the penalized objective.
func SolveSimulatedAnnealing(p *Problem, sweeps int, opts BaselineOptions) *BaselineResult {
	return baselines.SimulatedAnnealing(p, sweeps, opts)
}

// Circuit is a gate-model quantum circuit; transition operators, QAOA
// layers, and device-compiled programs are all expressed in it.
type Circuit = quantum.Circuit

// TransitionCircuit emits the gate-level implementation of the transition
// operator τ(u, t) = exp(-i·H^τ(u)·t) over n qubits (the paper's Figure 4
// construction). u must be a nonzero {-1,0,1} vector of length n.
func TransitionCircuit(u []int64, n int, t float64) (*Circuit, error) {
	tr, err := core.NewTransition(u)
	if err != nil {
		return nil, err
	}
	return tr.OperatorCircuit(n, t), nil
}

// ExportQASM serializes a circuit as OpenQASM 2.0 text.
func ExportQASM(c *Circuit) string { return qasm.Export(c) }

// ParseQASM reads OpenQASM 2.0 text (the subset ExportQASM emits plus
// common aliases).
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// DrawCircuit renders a circuit as ASCII art for terminal inspection.
func DrawCircuit(c *Circuit) string { return quantum.Draw(c) }

// Schedule is the pruned transition-operator sequence of one problem —
// the output of the offline compile stage of a solve.
type Schedule = core.Schedule

// MarshalSchedule serializes a solve's pruned schedule (e.g.
// Result.Schedule) so the one-shot offline pruning can be reused across
// processes; UnmarshalSchedule validates it against the problem before
// reuse.
func MarshalSchedule(p *Problem, s *Schedule) ([]byte, error) {
	return core.MarshalSchedule(p, s)
}

// UnmarshalSchedule restores a stored schedule, rejecting files whose
// constraint fingerprint or kernel membership no longer match p.
func UnmarshalSchedule(p *Problem, data []byte) (*Schedule, error) {
	return core.UnmarshalSchedule(p, data)
}
