//go:build !amd64

package kernel

// fusedGroups consumes nothing on architectures without an assembly
// engine: the portable loop serves the whole slice.
func fusedGroups(xs []float64) (FusedAcc, int) { return FusedAcc{}, 0 }
