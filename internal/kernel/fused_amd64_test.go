package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
)

// TestFusedEngineBitEquality runs the same slices through the AVX2 and
// portable fused engines and requires field-for-field identical
// accumulators, floats compared by bit pattern. It covers every length
// around the 4-element group up to 67 and a 1M-element array, a NaN or
// ±Inf at every position (each group lane and the tail), and the
// corners of the classification: all zeros, -0, subnormals only, and
// sums that overflow.
func TestFusedEngineBitEquality(t *testing.T) {
	if !*kernel.UseAVX2 {
		t.Skip("no AVX2 on this host")
	}
	defer func() { *kernel.UseAVX2 = true }()
	check := func(name string, xs []float64) {
		t.Helper()
		*kernel.UseAVX2 = true
		asm := kernel.FusedProfileSum(xs)
		*kernel.UseAVX2 = false
		port := kernel.FusedProfileSum(xs)
		if !fusedBitsEqual(asm, port) {
			t.Errorf("%s n=%d: engines differ\n avx2     %+v\n portable %+v", name, len(xs), asm, port)
		}
	}

	rng := rand.New(rand.NewSource(14))
	mixed := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = math.Copysign(0, -1)
			case 2:
				xs[i] = math.Ldexp(float64(1+rng.Intn(1000)), -1074)
			default:
				xs[i] = math.Ldexp(1+rng.Float64(), rng.Intn(240)-120)
			}
			if rng.Intn(2) == 0 {
				xs[i] = -xs[i]
			}
		}
		return xs
	}
	for n := 0; n <= 67; n++ {
		xs := mixed(n)
		check("mixed", xs)
		for p := range xs {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				ys := append([]float64(nil), xs...)
				ys[p] = bad
				check(fmt.Sprintf("%v@%d", bad, p), ys)
			}
		}
	}

	const big = 1 << 20
	for _, k := range []float64{1, 1e4, 1e10, math.Inf(1)} {
		xs := gen.Spec{N: big, Cond: k, DynRange: 32, Seed: 14}.Generate()
		check(fmt.Sprintf("gen k=%g", k), xs)
		xs[big-2] = math.Inf(-1)
		check(fmt.Sprintf("gen k=%g -Inf", k), xs)
	}
	check("mixed 1M", mixed(big))

	zeros := make([]float64, 37)
	check("zeros", zeros)
	for i := range zeros {
		zeros[i] = math.Copysign(0, -1)
	}
	check("negzeros", zeros)
	zeros[5], zeros[30] = 0, -0x1p-1074
	check("zeros+subnormal", zeros)
	sub := make([]float64, 41)
	for i := range sub {
		sub[i] = math.Ldexp(float64(i%9+1), -1074+i%40)
		if i%3 == 0 {
			sub[i] = -sub[i]
		}
	}
	check("subnormal", sub)
	top := math.MaxFloat64
	check("overflow", []float64{top, top, 1, -top, 3, 0, 2, top, -1})
	check("overflow-neg", []float64{-top, -top, -top, -top, -0x1p-1074, 5})
	check("overflow-cancel", []float64{top, 0x1p970, -top, -top, 1, 2, 3, 4})
}
