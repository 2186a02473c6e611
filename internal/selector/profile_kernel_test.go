package selector

import (
	"math"
	"testing"

	"repro/internal/gen"
)

// TestProfileOfMatchesAddFold pins ProfileOf (the fused kernel's
// profile) against folding Profile.Add — every field,
// including the composite-precision sums, must be identical.
func TestProfileOfMatchesAddFold(t *testing.T) {
	sets := map[string][]float64{
		"benign":    gen.Spec{N: 1000, Cond: 1, DynRange: 8, Seed: 1}.Generate(),
		"illcond":   gen.Spec{N: 1001, Cond: 1e8, DynRange: 24, Seed: 2}.Generate(),
		"zeros":     {0, 0, 1, -2, 0, 3},
		"poisoned":  {1, math.NaN(), 2, math.Inf(1)},
		"empty":     nil,
		"subnormal": {0x1p-1074, -0x1p-1050, 0x1p-1022},
	}
	for name, xs := range sets {
		batch := ProfileOf(xs)
		var folded Profile
		for _, x := range xs {
			folded = folded.Add(x)
		}
		if batch != folded {
			t.Errorf("%s: ProfileOf = %+v, Add fold = %+v", name, batch, folded)
		}
	}
}
