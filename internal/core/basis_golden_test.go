package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"rasengan/internal/problems"
)

// basisPoolGolden is the SHA-256 of every basis BuildBasis returns over
// the golden pool (see basisPoolDigest). Schedules and solve payloads are
// functions of these pools, while cache keys hash only the spec and the
// options, so a different digest means cached results no longer match what
// a fresh solve computes: update it only for a deliberate change to basis
// construction.
const basisPoolGolden = "8335f2e98b06c70dd6f5b27db4eb0eddb1ce116c5750b711bfaf810e48ccfcf7"

// basisPoolDigest hashes (Vectors, M, TU, SimplifySaved, UsedTernarySearch)
// of BuildBasis with default options for every family at scales 1–3,
// cases 0–63, plus scale 4 cases 0–7.
func basisPoolDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	for _, fam := range problems.Families {
		for scale := 1; scale <= 4; scale++ {
			cases := 64
			if scale == 4 {
				cases = 8
			}
			for c := 0; c < cases; c++ {
				bm := problems.Benchmark{Family: fam, Scale: scale}
				fmt.Fprintf(h, "%s/%d\n", bm.Label(), c)
				b, err := BuildBasis(bm.Generate(c), BasisOptions{})
				if err != nil {
					fmt.Fprintf(h, "err %v\n", err)
					continue
				}
				word(int64(len(b.Vectors)))
				for _, u := range b.Vectors {
					word(int64(len(u)))
					for _, v := range u {
						word(v)
					}
				}
				word(int64(b.M))
				flag(b.TU)
				word(int64(b.SimplifySaved))
				flag(b.UsedTernarySearch)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildBasisPoolGolden pins the output of basis construction across
// the benchmark pool: faster closures, ladder cut-offs and allocation-free
// simplification must leave every pool byte-identical.
func TestBuildBasisPoolGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ~1000 bases")
	}
	if got := basisPoolDigest(t); got != basisPoolGolden {
		t.Fatalf("basis pool digest %s, want %s", got, basisPoolGolden)
	}
}
