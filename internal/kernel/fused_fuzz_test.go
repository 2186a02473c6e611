package kernel_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/selector"
)

// FuzzFusedProfileSum reads its input as little-endian float64s, so
// every bit pattern is reachable: NaN payloads, infinities, subnormals,
// signed zeros. The dispatched kernel (the AVX2 engine where the CPU
// has it) must equal the portable engine field for field, its profile
// the Profile.Add fold, and its ST shadow kernel.ST. The seed corpus in
// testdata/fuzz/FuzzFusedProfileSum replays in every go test run.
func FuzzFusedProfileSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got := kernel.FusedProfileSum(xs)
		if port := kernel.FusedProfileSumGo(xs); !fusedBitsEqual(got, port) {
			t.Fatalf("kernel %+v\nportable %+v", got, port)
		}
		var p selector.Profile
		for _, x := range xs {
			p = p.Add(x)
		}
		fold := kernel.FusedAcc{
			N: p.N, ST: got.ST,
			SumS: p.Sum.S, SumC: p.Sum.C, AbsS: p.SumAbs.S, AbsC: p.SumAbs.C,
			MaxExp: p.MaxExp, MinExp: p.MinExp, HasNonzero: p.HasNonzero,
			Pos: p.Pos, Neg: p.Neg, NonFinite: p.NonFinite,
		}
		if !fusedBitsEqual(got, fold) {
			t.Fatalf("kernel %+v\nProfile.Add fold %+v", got, p)
		}
		if st := kernel.ST(xs); bits(got.ST) != bits(st) {
			t.Fatalf("ST shadow %x, kernel.ST %x", bits(got.ST), bits(st))
		}
	})
}
