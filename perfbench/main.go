// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It builds the program from the checkout, generates one
// workload's inputs from a seed, measures for a fixed time, checks every
// output, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-exact --seed 1 --seconds 25 --trace 0
//
// Workloads: cold-exact, hot-cache, noisy-solve. With --trace 0 the result
// holds the end-to-end metrics; with --trace 1 it runs an untraced and a
// traced pass of half the time each and holds the per-layer metrics.
// See perfbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rasengan/internal/obs"
)

// subPasses is how many times a --trace 0 run measures its workload:
// throughput and median latency are the best of the passes.
const subPasses = 3

// serviceSetups is how many times a --trace 0 run of a service workload
// sets its topology up; setup_s is the fastest. The last subPasses of
// them are measured, the others are closed straight away. One set-up
// takes about a tenth of a second, mostly fsyncs, whose latency on a
// shared disk drifts from minute to minute.
const serviceSetups = 11

// noisySetups is how many times a --trace 0 run of noisy-solve sets up
// (three solves each); setup_s is the fastest. The first set-up of a
// process is the slowest, as the heap grows to its working size.
const noisySetups = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string // data directories and trace files
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold-exact, hot-cache or noisy-solve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer metrics from an extra traced pass")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "run"), "directory for data directories and trace files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fail(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s source=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceDigest("."))

	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "cold-exact":
		rep, err = runService(cfg, newColdWorkload(cfg.seed, cfg.seconds))
	case "hot-cache":
		var w *hotWorkload
		if w, err = newHotWorkload(cfg.seed, cfg.seconds); err == nil {
			rep, err = runService(cfg, w)
		}
	case "noisy-solve":
		rep, err = runNoisy(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fail(err)
	}
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// report is a finished run: the result line plus the human-readable
// lines printed before it.
type report struct {
	res   result
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	if r.res.Metrics == nil {
		r.res.Metrics = map[string]metric{}
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.res.Metrics[k]
		fmt.Printf("# %-30s %14.4f %s\n", k, m.Value, m.Unit)
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// finish fills the accounting fields from the tally.
func (r *report) finish(t *tally) {
	attempted, bad := t.counts()
	r.res.Attempted, r.res.Failed = attempted, bad
	r.res.Correct = bad == 0 && attempted > 0
	r.note("ops attempted=%d failed=%d error_rate=%.6f", attempted, bad, t.errorRate())
	reasons := make([]string, 0, len(t.reasons))
	for why, n := range t.reasons {
		reasons = append(reasons, fmt.Sprintf("%dx %s", n, why))
	}
	sort.Strings(reasons)
	for i, why := range reasons {
		if i == 10 {
			r.note("failure: … %d more kinds", len(reasons)-i)
			break
		}
		r.note("failure: %s", why)
	}
}

// endToEnd sets the end-to-end metrics of checked passes over the same
// work: throughput and median latency of the best of the candidate passes
// in best, the tail over all successful ops of passes, their ARG, the
// fastest set-up and the peak RSS read when the last pass ended.
func (r *report) endToEnd(best, passes []measured, args []float64, setups []float64, rssMB float64) {
	thr, p50 := bestOf(best)
	r.set("throughput_per_s", thr, "1/s")
	r.set("latency_p50_ms", p50, "ms")
	sorted := sortedCopy(pool(passes).lat)
	p, ok := tailPercentile(len(sorted))
	if !ok {
		p = 50 // too few samples for any tail: fall back to the median
	}
	r.set("latency_tail_ms", percentile(sorted, p), "ms")
	r.note("latency_tail_ms is p%.1f of %d samples", p, len(sorted))
	for i, m := range passes {
		r.note("pass %d: %d ops, %.4g ops/s, p50 %.4g ms", i, len(m.lat), m.throughput(), median(m.lat))
	}
	r.set("arg_mean", mean(args), "ratio")
	r.note("set-ups (s): %s", fmtList(setups))
	r.set("setup_s", slices.Min(setups), "s")
	r.set("peak_rss_mb", rssMB, "MB")
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes the traced pass's spans as Chrome trace-event JSON.
func writeTrace(cfg config, rec *obs.Recorder, r *report) {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		err = rec.WriteChromeTraceFile(path)
		if err == nil {
			r.note("trace: %s (%d spans)", path, rec.Len())
			return
		}
	}
	r.note("trace: not written")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
