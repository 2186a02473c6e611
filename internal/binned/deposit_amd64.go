package binned

// AVX2 engine selection for the two-level deposit path. The assembly
// kernel performs the same exact floating-point operations as the
// portable depositGroupsGo (sublane-for-sublane), so installing it is
// invisible to the reproducibility contract — Finalize bits cannot
// depend on which engine ran.

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func depositGroupsAVX2(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64

// HasAVX2 reports whether the CPU and OS support AVX2: AVX CPU flag,
// OS-enabled XMM+YMM state (OSXSAVE + XCR0), and the AVX2 extension.
// It is the one CPU probe in the module; package kernel's fused
// profile engine dispatches on it too.
func HasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

// useAVX2 routes depositGroupsFast to the assembly kernel.
var useAVX2 = HasAVX2()

// depositGroupsFast runs the widest group kernel this CPU supports.
// Small enough to inline, and both callees leave the quad pointer on
// the stack, so the caller's quad never escapes.
func depositGroupsFast(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64 {
	if useAVX2 {
		return depositGroupsAVX2(xs, consts, efLo, efSpan, q)
	}
	return depositGroupsGo(xs, consts, efLo, efSpan, q)
}
