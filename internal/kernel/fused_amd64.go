package kernel

import (
	"math"

	"repro/internal/binned"
	"repro/internal/fpu"
)

// AVX2 engine for the fused profile pass. The assembly kernel runs the
// same scalar float64 operations as the portable loop, in the same
// order, and classifies each group of four on vector lanes; the lane
// state it returns decodes to exactly the FusedAcc the portable loop
// would have built over the same prefix.

//go:noescape
func fusedGroupsAVX2(xs []float64, out *fusedLanes)

// fusedLanes is the assembly kernel's raw state. s, c and abs are the
// TwoSum pair and the plain |x| sum over every element (zeros are exact
// no-ops on all three). Per lane, max holds the largest |x| bit pattern,
// min the smallest nonzero one (MaxInt64 when the lane saw only zeros),
// and zeros/negs count zero and negative nonzero elements.
type fusedLanes struct {
	s, c, abs             float64
	max, min, zeros, negs [4]int64
}

// useAVX2 routes fusedGroups to the assembly kernel.
var useAVX2 = binned.HasAVX2()

// fusedGroups folds the longest whole-group prefix of xs the assembly
// kernel can serve and returns its state with the number of elements
// consumed. It consumes nothing without AVX2, or when a NaN or ±Inf
// sits in the prefix: the portable loop then reruns the whole slice.
//
// For finite input the ST shadow equals the pair's S bit for bit: both
// are the same left-to-right sums, neither can hold -0, and the zeros
// the pair skips are exact no-ops on the shadow.
func fusedGroups(xs []float64) (FusedAcc, int) {
	n := len(xs) &^ 3
	if !useAVX2 || n == 0 {
		return FusedAcc{}, 0
	}
	var l fusedLanes
	fusedGroupsAVX2(xs[:n], &l)
	hi, lo := l.max[0], l.min[0]
	zeros, neg := l.zeros[0], l.negs[0]
	for i := 1; i < 4; i++ {
		hi, lo = max(hi, l.max[i]), min(lo, l.min[i])
		zeros += l.zeros[i]
		neg += l.negs[i]
	}
	if hi >= 0x7ff<<52 {
		return FusedAcc{}, 0
	}
	a := FusedAcc{N: int64(n), ST: l.s, SumS: l.s, SumC: l.c, AbsS: l.abs, Neg: neg}
	if nz := int64(n) - zeros; nz > 0 {
		// The exponent is monotone in the bits of a non-negative
		// double, so the extreme patterns decode to the extreme
		// exponents.
		a.Pos = nz - neg
		a.HasNonzero = true
		a.MaxExp = fpu.FiniteExponent(math.Float64frombits(uint64(hi)))
		a.MinExp = fpu.FiniteExponent(math.Float64frombits(uint64(lo)))
	}
	return a, n
}
