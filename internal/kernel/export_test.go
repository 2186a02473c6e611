package kernel

// FusedProfileSumGo runs the portable fused engine over the whole
// slice, whatever the CPU supports: the oracle and benchmark baseline
// for the assembly engine.
func FusedProfileSumGo(xs []float64) FusedAcc { return FusedAcc{}.fold(xs) }
