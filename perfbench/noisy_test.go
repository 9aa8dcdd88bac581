package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// When the inputs run out before the deadline, the run ends after the last
// whole cycle and check accounts every solve.
func TestNoisyRunEndsWhenInputsRunOut(t *testing.T) {
	// Two whole cycles of small, short solves plus part of a third one.
	const cycles = 2
	instances := noisyInstances(1, 2)
	n := len(instances)
	specs := append(noisyInputs(1, cycles, instances), instances[:2]...)
	w, err := noisyWorkloadOf(instances, specs)
	if err != nil {
		t.Fatal(err)
	}
	p := w.run(time.Hour, nil, nil)
	if len(p.cycles) != cycles || len(p.ops) != cycles*n {
		t.Fatalf("ran %d cycles, %d solves; want %d cycles of %d", len(p.cycles), len(p.ops), cycles, n)
	}
	var tl tally
	c, err := w.check(p, &tl, optimum{})
	if err != nil {
		t.Fatal(err)
	}
	if attempted, bad := tl.counts(); attempted != len(p.ops) || bad != 0 {
		t.Errorf("attempted %d, failed %d; want %d, 0 (%v)", attempted, bad, len(p.ops), tl.reasons)
	}
	if len(c.cycles) != cycles || len(c.args) != len(p.ops) {
		t.Fatalf("got %d cycles and %d ARGs", len(c.cycles), len(c.args))
	}

	// The fastest cycle takes each instance's fastest solve; the digest
	// covers each instance's payload, in instance order.
	var want measured
	var payloads [][]byte
	for _, inst := range instances {
		l := math.Inf(1)
		var payload []byte
		for i, op := range p.ops {
			if specs[i].key() == inst.key() {
				l = math.Min(l, ms(op.latency))
				payload = op.payload
			}
		}
		want.lat = append(want.lat, l)
		want.elapsed += time.Duration(l * float64(time.Millisecond))
		payloads = append(payloads, payload)
	}
	if !reflect.DeepEqual(c.fastest, want) {
		t.Errorf("fastest cycle %+v, want %+v", c.fastest, want)
	}
	if c.digest != digestOf(payloads) {
		t.Errorf("digest %s, want %s", c.digest, digestOf(payloads))
	}

	// A digest other than the wanted one fails the run.
	w.wantDigest = "0000000000000000"
	var tl2 tally
	if _, err := w.check(p, &tl2, optimum{}); err != nil {
		t.Fatal(err)
	}
	if attempted, bad := tl2.counts(); attempted != len(p.ops)+1 || bad != 1 {
		t.Errorf("wrong digest: attempted %d, failed %d; want %d, 1", attempted, bad, len(p.ops)+1)
	}
}

func TestDigestOfSeparatesPayloads(t *testing.T) {
	a := digestOf([][]byte{[]byte("ab"), []byte("c")})
	if a != digestOf([][]byte{[]byte("ab"), []byte("c")}) {
		t.Error("digest is not deterministic")
	}
	if a == digestOf([][]byte{[]byte("a"), []byte("bc")}) {
		t.Error("digest ignores payload boundaries")
	}
}
