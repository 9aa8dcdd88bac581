package main

import (
	"math"
	"testing"
	"time"

	"rasengan/internal/obs"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 100 * (1 - 10.0/999), true},
		{1000, 99, true},
		{250000, 99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if math.Abs(got-c.want) > 1e-9 || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

func TestTallyCountsRefusalsAndRejectionsAsFailures(t *testing.T) {
	var tl tally
	tl.record(succeeded, "")
	tl.record(succeeded, "")
	tl.record(refused, "refused: HTTP 429")
	tl.record(failed, "HTTP 500")
	tl.reject("payload differs from reference: x")
	attempted, bad := tl.counts()
	if attempted != 4 || bad != 3 {
		t.Fatalf("counts = %d attempted, %d bad; want 4, 3", attempted, bad)
	}
	if got := tl.errorRate(); got != 0.75 {
		t.Errorf("errorRate = %v, want 0.75", got)
	}
	if len(tl.reasons) != 3 {
		t.Errorf("reasons = %v, want 3 kinds", tl.reasons)
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Error("errorRate with nothing attempted is not 0")
	}
}

func TestClassifyHTTPOutcomes(t *testing.T) {
	done := envelope{Status: "done", Result: []byte(`{}`)}
	cases := []struct {
		r    callResult
		want outcome
	}{
		{callResult{code: 200, env: done}, succeeded},
		{callResult{code: 429}, refused},
		{callResult{code: 503}, refused},
		{callResult{code: 500}, failed},
		{callResult{code: 200, env: envelope{Status: "queued"}}, failed},
		{callResult{code: 200, env: envelope{Status: "done"}}, failed},
		{callResult{err: errTest}, failed},
	}
	for i, c := range cases {
		if got, _ := classify(c.r); got != c.want {
			t.Errorf("case %d: classify = %v, want %v", i, got, c.want)
		}
	}
}

type testErr struct{}

func (testErr) Error() string { return "boom" }

var errTest error = testErr{}

func span(name string, parent obs.SpanID, start, end int) obs.Span {
	return obs.Span{Name: name, Parent: parent, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimesSubtractChildCover(t *testing.T) {
	spans := []obs.Span{
		span("client", obs.NoParent, 0, 100), // 0
		span("gateway", 0, 10, 90),           // 1: child of client
		span("service", 1, 20, 80),           // 2: child of gateway
		span("queue", 2, 20, 30),             // 3
		span("solve", 2, 30, 70),             // 4: adjacent to queue
		span("retry", 1, 85, 95),             // 5: sticks out of its parent
		span("overlap", 4, 40, 60),           // 6
		span("overlap", 4, 50, 65),           // 7: overlaps 6
		span("open", 4, 66, -1),              // 8: never ended
	}
	want := []time.Duration{
		100 - 80,    // client minus gateway
		80 - 60 - 5, // gateway minus service and the clipped part of retry
		60 - 50,     // service minus queue ∪ solve
		10,          // queue
		40 - 25,     // solve minus (40,65)
		10,          // retry
		20,          // leaf
		15,          // leaf
		0,           // open spans count as zero
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, i, got[i], want[i])
		}
	}
}

func TestCoverMergesIntervals(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {2, 4}, {10, 12}, {20, 21}}
	if got := cover(iv); got != 4+7+1 {
		t.Errorf("cover = %v, want 12", got)
	}
	if cover(nil) != 0 {
		t.Error("cover of nothing is not 0")
	}
}

func TestBestOfTakesTheLeastDisturbedPass(t *testing.T) {
	sec := time.Second
	passes := []measured{
		{lat: []float64{4, 5, 6}, elapsed: sec},     // 3/s, p50 5
		{lat: []float64{1, 2, 9, 9}, elapsed: sec},  // 4/s, p50 5.5
		{lat: []float64{2, 3, 4}, elapsed: 2 * sec}, // 1.5/s, p50 3
		{elapsed: sec}, // nothing succeeded
	}
	thr, p50 := bestOf(passes)
	if thr != 4 || p50 != 3 {
		t.Errorf("bestOf = %v/s, p50 %v; want 4/s, p50 3", thr, p50)
	}
	all := pool(passes)
	if len(all.lat) != 10 || all.elapsed != 5*sec {
		t.Errorf("pool = %d samples over %v, want 10 over 5s", len(all.lat), all.elapsed)
	}
}
