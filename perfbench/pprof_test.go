package main

import (
	"testing"
	"time"

	"crossbow/internal/tensor"
)

func TestKernelGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"crossbow/internal/tensor.Im2colBatch":        "im2col",
		"crossbow/internal/tensor.im2colInterior":     "im2col",
		"crossbow/internal/tensor.Col2imBatch.func1":  "col2im",
		"crossbow/internal/tensor.gemmMicroFMAZ16":    "gemm",
		"crossbow/internal/tensor.packATr8AVX2":       "gemm",
		"crossbow/internal/tensor.GemmTBMode":         "gemm",
		"crossbow/internal/tensor.accumAddAVX2":       "elementwise",
		"crossbow/internal/tensor.ReluBwd":            "elementwise",
		"crossbow/internal/tensor.(*RNG).NormFloat64": "",
		"crossbow/internal/nn.(*Conv2D).Forward":      "",
		"runtime.memclrNoHeapPointers":                "",
	} {
		if got := kernelGroup(fn); got != want {
			t.Errorf("kernelGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileShares profiles a GEMM loop and checks that the decoded
// profile charges it to the gemm group.
func TestProfileShares(t *testing.T) {
	const n = 128
	a, b, c := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i], b[i] = float32(i%7), float32(i%5)
	}
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		tensor.Gemm(1, a, n, n, b, n, 0, c)
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	// The race detector's runtime takes a share of its own, so the bar is
	// that GEMM dominates, not that it is everything.
	for g, v := range shares {
		if g != "gemm" && v >= shares["gemm"] {
			t.Fatalf("a GEMM loop charged more to %s than to gemm: %v", g, shares)
		}
	}
	if shares["gemm"] < 0.3 {
		t.Fatalf("a GEMM loop got gemm share %v (all shares %v)", shares["gemm"], shares)
	}
}

func TestWalkFieldsRejectsTruncation(t *testing.T) {
	// Field 6 (string table), length 5, but only 2 bytes follow.
	if _, err := decodeProfile([]byte{6<<3 | 2, 5, 'a', 'b'}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
