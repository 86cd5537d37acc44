package main

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// isaFlags reports the CPU's AVX2, FMA and AVX-512F feature bits (CPUID
// leaves 1 and 7).
func isaFlags() (avx2, fma, avx512f bool) {
	maxID, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	fma = c1&(1<<12) != 0
	if maxID >= 7 {
		_, b7, _, _ := cpuid(7, 0)
		avx2 = b7&(1<<5) != 0
		avx512f = b7&(1<<16) != 0
	}
	return avx2, fma, avx512f
}
