package tensor

import (
	"testing"

	"hotline/internal/par"
)

// TestQuantKernelsZeroAlloc gates every quantization kernel at 0 allocs/op:
// they run inside the fused dequantize-gather on the prefetch hot path, so
// none of them may touch the heap.
func TestQuantKernelsZeroAlloc(t *testing.T) {
	src := make([]float32, 67) // odd length exercises the unroll tails
	for i := range src {
		src[i] = float32(i)*0.37 - 11
	}
	qi := make([]int8, len(src))
	qh := make([]uint16, len(src))
	dst := make([]float32, len(src))
	var scale float32
	if n := testing.AllocsPerRun(100, func() {
		scale = QuantizeRowI8(qi, src)
		DequantizeRowI8(dst, qi, scale)
		QuantizeRowF16(qh, src)
		DequantizeRowF16(dst, qh)
		RoundTripI8(dst, src)
		RoundTripF16(dst, src)
	}); n != 0 {
		t.Fatalf("quant kernels allocate %v/op; want 0", n)
	}
	if scale == 0 {
		t.Fatal("non-degenerate row must produce a positive scale")
	}
}

// TestGEMMKernelsZeroAlloc gates the three GEMMs nn.Linear runs every step
// at 0 allocs/op on the serial path: the compaction buffers they gather a
// row's nonzero coefficients into must stay on the stack. The shapes carry
// more than gemmChunk nonzeros per row, so the chunk flush runs too.
func TestGEMMKernelsZeroAlloc(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	rng := NewRNG(5)
	x := sparseMatrix(20, 367, 0.5, rng)
	w := sparseMatrix(367, 64, 0, rng)
	g := sparseMatrix(20, 64, 0.5, rng)
	out, gw, gin := New(20, 64), New(367, 64), New(20, 367)
	if n := testing.AllocsPerRun(20, func() {
		MatMul(out, x, w)
		MatMulTransA(gw, x, g)
		MatMulTransB(gin, g, w)
	}); n != 0 {
		t.Fatalf("GEMM kernels allocate %v/op; want 0", n)
	}
}
