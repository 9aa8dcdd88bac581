package main

import (
	"testing"

	"rasengan/internal/metrics"
)

func TestScrapeReadsCountersAndGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("hits_total", "h").Add(3)
	reg.CounterWith("requests_total", "r", [2]string{"route", "solve"}, [2]string{"code", "200"}).Add(5)
	reg.CounterWith("requests_total", "r", [2]string{"route", "solve"}, [2]string{"code", "429"}).Add(2)
	reg.CounterWith("requests_total", "r", [2]string{"route", "job"}, [2]string{"code", "200"}).Add(7)
	reg.GaugeFunc("fsyncs", "f", func() float64 { return 11 })
	m := scrape(reg)
	if m["hits_total"] != 3 || m["fsyncs"] != 11 {
		t.Errorf("scrape = %v", m)
	}
	if got := sumPrefix(m, `requests_total{route="solve"`); got != 7 {
		t.Errorf("solve requests = %v, want 7", got)
	}
}

func TestCounterDeltas(t *testing.T) {
	before := counters{cacheHits: 1, fsyncs: 4, solveRequests: []float64{2, 3}}
	after := counters{cacheHits: 6, fsyncs: 10, accepted: 2, solveRequests: []float64{5, 3}, retries: 1}
	d := after.sub(before)
	if d.cacheHits != 5 || d.fsyncs != 6 || d.accepted != 2 || d.retries != 1 || d.solveRequests[0] != 3 || d.solveRequests[1] != 0 {
		t.Errorf("delta = %+v", d)
	}
}
