package parallel

import (
	"flag"
	"testing"
)

func applyArgs(t *testing.T, args ...string) (int, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	w := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return w.Apply()
}

func TestWorkersFlag(t *testing.T) {
	defer SetWorkers(0)
	cases := []struct {
		args    []string
		want    int
		wantErr bool
	}{
		{nil, 0, false},
		{[]string{"-workers", "4"}, 4, false},
		{[]string{"-workers", "-1"}, 0, true},
	}
	for _, tc := range cases {
		got, err := applyArgs(t, tc.args...)
		if (err != nil) != tc.wantErr {
			t.Errorf("%v: err = %v, wantErr %v", tc.args, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%v: applied %d, want %d", tc.args, got, tc.want)
		}
	}
}

func TestWorkersFlagWiresPool(t *testing.T) {
	defer SetWorkers(0)
	if _, err := applyArgs(t, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	if Workers() != 2 {
		t.Errorf("Workers() = %d after -workers 2", Workers())
	}
	// 0 leaves the current setting alone (all cores by default).
	if _, err := applyArgs(t); err != nil {
		t.Fatal(err)
	}
	if Workers() != 2 {
		t.Errorf("Workers() = %d, zero flag should not reset an explicit setting", Workers())
	}
}
