package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(coldInputs(7, 200), coldInputs(7, 200)) {
		t.Error("cold-exact inputs differ for one seed")
	}
	if reflect.DeepEqual(coldInputs(7, 200), coldInputs(8, 200)) {
		t.Error("cold-exact inputs equal for two seeds")
	}
	// A longer list extends a shorter one: runs of different length send
	// the same requests first.
	if !reflect.DeepEqual(coldInputs(7, 50), coldInputs(7, 200)[:50]) {
		t.Error("cold-exact inputs are not prefix-stable")
	}
	s1, o1 := hotInputs(3, 500)
	s2, o2 := hotInputs(3, 500)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
		t.Error("hot-cache inputs differ for one seed")
	}
	inst := noisyInstances(3, noisyMaxIter)
	if !reflect.DeepEqual(noisyInputs(5, 4, inst), noisyInputs(5, 4, inst)) {
		t.Error("noisy-solve inputs differ for one seed")
	}
}

func TestColdInputsNeverShareACacheKey(t *testing.T) {
	specs := coldInputs(11, 5000)
	seen := map[string]bool{}
	cells := map[string]bool{}
	for _, s := range specs {
		if seen[s.key()] {
			t.Fatalf("duplicate spec %s", s.key())
		}
		seen[s.key()] = true
		cells[s.label()] = true
		if s.Scale < 1 || s.Scale > 3 || s.MaxIter != exactMaxIter {
			t.Fatalf("spec %+v outside the workload", s)
		}
	}
	if len(cells) != 15 {
		t.Errorf("cold-exact covers %d family×scale cells, want 15", len(cells))
	}
	for _, s := range warmupInputs() {
		if s.MaxIter == exactMaxIter {
			t.Error("a warm-up request can share a cache key with a measured one")
		}
	}
}

func TestHotOrderStaysInTheWorkingSet(t *testing.T) {
	set, order := hotInputs(2, 10000)
	if len(set) != 15*hotCasesPerCell {
		t.Fatalf("working set %d, want %d", len(set), 15*hotCasesPerCell)
	}
	hits := make([]int, len(set))
	for _, i := range order {
		hits[i]++
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("set entry %d never drawn in 10000 requests", i)
		}
	}
}

func TestNoisyCycleCoversEachInstanceOnce(t *testing.T) {
	instances := noisyInstances(3, noisyMaxIter)
	if len(instances) != 9 {
		t.Fatalf("%d instances, want 9", len(instances))
	}
	specs := noisyInputs(9, 2, instances)
	var orders [2][]string
	for c := range orders {
		seen := map[string]bool{}
		for _, s := range specs[c*len(instances) : (c+1)*len(instances)] {
			if s.Scale != 3 || s.MaxIter != noisyMaxIter || s.Seed != 1 {
				t.Errorf("%+v outside the workload", s)
			}
			seen[s.key()] = true
			orders[c] = append(orders[c], s.key())
		}
		if len(seen) != len(instances) {
			t.Errorf("cycle %d covers %d instances, want %d", c, len(seen), len(instances))
		}
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Error("both cycles solve the instances in one order")
	}
}

// The Solve hook identifies a request by problem name and seed; the name
// the generator predicts must be the one Spec.Build gives.
func TestProblemNameMatchesBuild(t *testing.T) {
	for _, s := range coldInputs(4, 30) {
		p, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != s.problemName() {
			t.Errorf("built %q, predicted %q", p.Name, s.problemName())
		}
		if !strings.Contains(string(s.body()), `"max_iter":40`) {
			t.Errorf("body %s lacks the fixed max_iter", s.body())
		}
	}
}
