package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/sum"
	"repro/internal/tree"
)

// sweepDigest hashes every bit of a sweep's results in cell order and,
// within each cell, in the configured algorithm order: the cell header
// (spec, measured k and dr) and each algorithm's StdDev, RelStdDev,
// MaxErr bits and Distinct count.
func sweepDigest(res []CellResult, algs []sum.Algorithm) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	for _, r := range res {
		put(uint64(r.Spec.N))
		putF(r.Spec.Cond)
		put(uint64(r.Spec.DynRange))
		putF(r.MeasuredK)
		put(uint64(r.MeasuredDR))
		for _, alg := range algs {
			put(uint64(alg))
			putF(r.StdDev[alg])
			putF(r.RelStdDev[alg])
			putF(r.MaxErr[alg])
			put(uint64(r.Distinct[alg]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSweepGoldenDigest freezes the sweep engine's output bits. The
// digests were recorded when two engines still coexisted and the fused
// one was pinned bitwise against single-executor replay; any change to
// plan sampling, seeding, lockstep lanes or the streaming statistics
// shows up here.
func TestSweepGoldenDigest(t *testing.T) {
	cells := KDRGrid(300, []float64{1, 1e4, math.Inf(1)}, []int{0, 16})
	cases := []struct {
		name  string
		algs  []sum.Algorithm
		shape tree.Shape
		want  string
	}{
		{"paper/balanced", sum.PaperAlgorithms, tree.Balanced,
			"3240ec2c1c61dd89deee6b8e76f81401862164d1a7828a647d755981fe5cccb7"},
		{"paper/random", sum.PaperAlgorithms, tree.Random,
			"8f62736017afb36417c43045ddb7a4a39b56b0409f3ee90ea1b2872dc73a707f"},
		{"ladder/balanced", sum.SelectionLadder, tree.Balanced,
			"ae3f70e5928a621624989ae851c73ecb1eaeb7473b624910d6982f4a13b53912"},
		{"ladder/random", sum.SelectionLadder, tree.Random,
			"14470c9949c87d3ff0788a89d90c6558059a9f2ae3858228fc41e8a1b4020050"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			res := Sweep(cells, Config{
				Algorithms: c.algs,
				Trials:     40,
				TrialBlock: 16,
				Shape:      c.shape,
				Seed:       0x901d,
				Workers:    workers,
			})
			if got := sweepDigest(res, c.algs); got != c.want {
				t.Errorf("%s workers=%d: digest %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}
