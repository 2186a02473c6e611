package binned

import (
	"math"
	"math/rand"
	"testing"
)

// TestEngineBitEquality runs the same slices through the assembly and
// portable engines and requires field-for-field identical states: the
// two kernels perform the same exact operations in the same order, so
// even the in-memory bin decomposition must match, not just Finalize.
func TestEngineBitEquality(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20000)
		xs := make([]float64, n)
		for i := range xs {
			m := 1 + rng.Float64()
			if rng.Intn(2) == 0 {
				m = -m
			}
			e := rng.Intn(120) - 60
			if trial%3 == 0 {
				e = rng.Intn(17) // single two-window regime
			}
			xs[i] = math.Ldexp(m, e)
		}
		useAVX2 = true
		var asm State
		asm.AddSlice(xs)
		useAVX2 = false
		var gost State
		gost.AddSlice(xs)
		if asm != gost {
			t.Fatalf("trial %d n=%d: AVX2 and portable states differ", trial, n)
		}
	}
}

// TestCPUFeatureDetect sanity-checks the CPUID dance: it must not
// report AVX2 on a CPU without OSXSAVE-managed YMM state, and the
// probe itself must be callable.
func TestCPUFeatureDetect(t *testing.T) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID == 0 {
		t.Fatal("CPUID leaf 0 returned max leaf 0")
	}
	_ = HasAVX2() // must not fault regardless of features
}
