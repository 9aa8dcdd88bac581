package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"rasengan/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// maxTail is the highest tail percentile the benchmark reports.
const maxTail = 99

// tailPercentile returns the highest percentile, at most maxTail, that
// has at least minBeyond of n samples beyond it: p99 from 1000 samples
// on, 100·(1 − 10/n) below that. It returns false when even the median
// has fewer than minBeyond samples beyond it.
func tailPercentile(n int) (float64, bool) {
	if n < 2*minBeyond {
		return 0, false
	}
	return math.Min(maxTail, 100*(1-float64(minBeyond)/float64(n))), true
}

// percentile returns the p-th percentile of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measured is what a measured pass yields for the end-to-end metrics: the
// latency (ms) of each successful op and the pass's wall time.
type measured struct {
	lat     []float64
	elapsed time.Duration
}

// throughput is successful ops per second of the pass.
func (m measured) throughput() float64 { return float64(len(m.lat)) / m.elapsed.Seconds() }

// pool merges passes into one: all their samples over their summed time.
func pool(passes []measured) measured {
	var all measured
	for _, p := range passes {
		all.lat = append(all.lat, p.lat...)
		all.elapsed += p.elapsed
	}
	return all
}

// bestOf returns the highest throughput and the lowest median latency of
// the passes: the figures of the pass the host disturbed least. Passes
// without a successful op are skipped.
func bestOf(passes []measured) (throughput, p50 float64) {
	throughput, p50 = math.Inf(-1), math.Inf(1)
	for _, p := range passes {
		if len(p.lat) == 0 {
			continue
		}
		throughput = math.Max(throughput, p.throughput())
		p50 = math.Min(p50, median(p.lat))
	}
	return throughput, p50
}

// outcome classifies one operation. Every op is attempted; it ends as
// exactly one of succeeded, refused (the system declined it, e.g. 429 or
// 503), or failed (an error or a wrong answer). Refusals count as
// failures in the report.
type outcome int

const (
	succeeded outcome = iota
	refused
	failed
)

// tally counts operations by outcome. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	refused   int
	failed    int
	reasons   map[string]int
}

func (t *tally) record(o outcome, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch o {
	case refused:
		t.refused++
	case failed:
		t.failed++
	}
	if o != succeeded {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[reason]++
	}
}

// reject turns an op already recorded as succeeded into a failure — a
// response that later fails its correctness check.
func (t *tally) reject(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// counts returns attempted and failed-or-refused.
func (t *tally) counts() (attempted, bad int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.refused + t.failed
}

// errorRate is failed-or-refused over attempted (0 with nothing attempted).
func (t *tally) errorRate() float64 {
	a, bad := t.counts()
	if a == 0 {
		return 0
	}
	return float64(bad) / float64(a)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its direct children's intervals. Open
// spans count as zero-length.
func selfTimes(spans []obs.Span) []time.Duration {
	children := make(map[obs.SpanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent != obs.NoParent {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[obs.SpanID(i)] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.End - s.Start - cover(iv)
	}
	return out
}

// cover is the total length of the union of intervals.
func cover(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}
