package kernel

// UseAVX2 exposes the fused engine's dispatch switch to the engine
// equality test.
var UseAVX2 = &useAVX2
