package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
)

var sinkF float64

// BenchmarkRuntimeSum1M measures the whole tolerance-0 request,
// Runtime.Sum on the exact route (exact), against the bare BN kernel
// and its finalize on the same 1M-element fig12 array (bn). make verify
// gates the exact/bn ratio: the request may cost no more than a little
// over the BN pass it runs.
func BenchmarkRuntimeSum1M(b *testing.B) {
	xs := gen.Spec{N: 1 << 20, Cond: 1e4, DynRange: 16, Seed: 42}.Generate()
	b.Run("exact", func(b *testing.B) {
		rt := New(0)
		for i := 0; i < b.N; i++ {
			sinkF, _ = rt.Sum(xs)
		}
	})
	b.Run("bn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := kernel.Binned(xs)
			sinkF = st.Finalize()
		}
	})
}
