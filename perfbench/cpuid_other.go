//go:build !amd64

package main

// isaFlags reports no x86 features off amd64.
func isaFlags() (avx2, fma, avx512f bool) { return false, false, false }
