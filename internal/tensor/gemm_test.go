package tensor

import (
	"fmt"
	"math"
	"testing"

	"hotline/internal/par"
)

// sparseMatrix fills a rows x cols matrix with normal values, zeroing each
// entry with probability zeroFrac; half of the zeros are −0, so the
// kernels' zero skip and the sign of an all-zero sum are both exercised.
func sparseMatrix(rows, cols int, zeroFrac float64, rng *RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			if rng.Intn(2) == 0 {
				m.Data[i] = float32(math.Copysign(0, -1))
			}
			continue
		}
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// The scalar references: every output element starts at +0 and adds its
// terms with the inner index ascending, skipping zero coefficients of a —
// the addition chain the compacted kernels promise to keep.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				if av := a.At(i, k); av != 0 {
					s += av * b.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refMatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for r := 0; r < a.Rows; r++ {
				if av := a.At(r, i); av != 0 {
					s += av * b.At(r, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refMatMulTransB is the reference dot product; skipZero=false keeps every
// term, which for finite b must give the same bits.
func refMatMulTransB(a, b *Matrix, skipZero bool) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				if av := a.At(i, k); av != 0 || !skipZero {
					s += av * b.At(j, k)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// bitsEqual reports the first element whose bit pattern differs.
func bitsEqual(got, want *Matrix) (int, bool) {
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestGEMMBitExactReference holds the three GEMM kernels to the scalar
// reference bit for bit (not to a tolerance) across inner dimensions that
// straddle the four-coefficient pass and the gemmChunk gather edges, row
// counts that are not multiples of four, zero fractions 0, ½ and 1 with
// signed zeros, and both the serial and the sharded path.
func TestGEMMBitExactReference(t *testing.T) {
	for _, workers := range []int{1, 2} {
		prev := par.SetWorkers(workers)
		rng := NewRNG(uint64(11 + workers))
		for _, k := range []int{1, 3, 4, 5, 63, 64, 65, 130, 367} {
			for _, zf := range []float64{0, 0.5, 1} {
				for _, shape := range [][2]int{{3, 9}, {7, 3}, {13, 10}} {
					m, n := shape[0], shape[1]
					name := fmt.Sprintf("w%d/k%d/z%g/%dx%d", workers, k, zf, m, n)
					a := sparseMatrix(m, k, zf, rng)
					b := sparseMatrix(k, n, zf, rng)
					got := New(m, n)
					MatMul(got, a, b)
					if i, ok := bitsEqual(got, refMatMul(a, b)); !ok {
						t.Errorf("MatMul %s: element %d differs from the reference", name, i)
					}

					at := sparseMatrix(k, m, zf, rng)
					bt := sparseMatrix(k, n, zf, rng)
					got = New(m, n)
					MatMulTransA(got, at, bt)
					if i, ok := bitsEqual(got, refMatMulTransA(at, bt)); !ok {
						t.Errorf("MatMulTransA %s: element %d differs from the reference", name, i)
					}

					bb := sparseMatrix(n, k, zf, rng)
					got = New(m, n)
					got.Fill(7) // MatMulTransB overwrites its destination
					MatMulTransB(got, a, bb)
					for _, skip := range []bool{true, false} {
						if i, ok := bitsEqual(got, refMatMulTransB(a, bb, skip)); !ok {
							t.Errorf("MatMulTransB %s (skipZero=%v): element %d differs from the reference", name, skip, i)
						}
					}
				}
			}
		}
		par.SetWorkers(prev)
	}
}

// TestMatMulTransBNonFiniteReachesOnlyNonzeroCoefficients pins the
// documented NaN/Inf semantics: a zero coefficient is skipped, so a NaN or
// ±Inf in b reaches only the outputs whose coefficient for it is nonzero.
func TestMatMulTransBNonFiniteReachesOnlyNonzeroCoefficients(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	a := FromSlice(2, 3, []float32{0, 1, 2, 1, 1, 2})
	b := FromSlice(2, 3, []float32{inf, 1, 1, nan, 1, 1})
	dst := New(2, 2)
	MatMulTransB(dst, a, b)
	if dst.At(0, 0) != 3 || dst.At(0, 1) != 3 {
		t.Fatalf("row with a zero coefficient on the non-finite column: got %v, want [3 3]", dst.Data[:2])
	}
	if !math.IsInf(float64(dst.At(1, 0)), 1) || !math.IsNaN(float64(dst.At(1, 1))) {
		t.Fatalf("row with nonzero coefficients: got %v, want [+Inf NaN]", dst.Data[2:])
	}
}
