package tensor

import (
	"fmt"

	"hotline/internal/par"
)

// Matrix is a dense row-major float32 matrix.
//
// The zero value is an empty 0x0 matrix. Data has length Rows*Cols; element
// (r, c) lives at Data[r*Cols+c].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows x cols matrix without copying.
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Resize reshapes m to rows x cols and zeroes every element, reusing the
// existing backing array when its capacity suffices. This is the scratch
// substrate of the steady-state training loop: per-step buffers are resized
// instead of reallocated, so after warm-up a step performs no allocations.
//
//hotline:hotpath
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		// Grow geometrically: µ-batch sizes jitter step to step, and exact
		// sizing would re-allocate on every new maximum instead of letting
		// the scratch buffer converge after a couple of steps.
		newCap := n
		if c := 2 * cap(m.Data); c > newCap {
			newCap = c
		}
		m.Data = make([]float32, n, newCap) //hotline:allow hotalloc geometric growth; scratch converges after warm-up (0 allocs/op gated)
	} else {
		m.Data = m.Data[:n]
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// ResizeNoZero is Resize without the clearing pass, for destinations whose
// every element is about to be overwritten (or that the consuming kernel
// zeroes itself, like MatMul). Reusing a buffer through Resize would memset
// it twice per step on the hot path.
//
//hotline:hotpath
func (m *Matrix) ResizeNoZero(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		newCap := n
		if c := 2 * cap(m.Data); c > newCap {
			newCap = c
		}
		m.Data = make([]float32, n, newCap) //hotline:allow hotalloc geometric growth; scratch converges after warm-up (0 allocs/op gated)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Reset truncates m to 0x0, keeping the backing array for later Resize.
func (m *Matrix) Reset() {
	m.Rows, m.Cols = 0, 0
	m.Data = m.Data[:0]
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (no copy) of row r.
//
//hotline:hotpath
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom resizes m to src's shape and copies src's contents into it,
// reusing m's backing array when possible.
//
//hotline:hotpath
func (m *Matrix) CopyFrom(src *Matrix) *Matrix {
	n := src.Rows * src.Cols
	if cap(m.Data) < n {
		// Same geometric growth as Resize: µ-batch sizes jitter, and exact
		// sizing would re-allocate on every new maximum.
		newCap := n
		if c := 2 * cap(m.Data); c > newCap {
			newCap = c
		}
		m.Data = make([]float32, n, newCap) //hotline:allow hotalloc geometric growth; scratch converges after warm-up (0 allocs/op gated)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = src.Rows, src.Cols
	copy(m.Data, src.Data)
	return m
}

// Zero sets every element to 0 in place.
//
//hotline:hotpath
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
//
//hotline:hotpath
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and other have identical shape and contents.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if other.Data[i] != v {
			return false
		}
	}
	return true
}

// String renders a compact shape descriptor (not the contents).
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// The hot kernels below branch on par.Serial and call their range body
// directly in the serial case: a closure passed to par.ForWork escapes to
// the heap at its creation point, so building one only on the parallel
// branch keeps the steady-state training loop allocation-free.

// gemmChunk is the capacity of the stack arrays a compacted GEMM gathers a
// row's nonzero coefficients into.
const gemmChunk = 64

// gatherNonzero scans the strided vector x[off+t*stride] for t ascending
// from t to n-1 and records each nonzero entry's index t and value in ks
// and vs, stopping once gemmChunk entries are held. It returns how many
// entries it recorded and the t to resume the scan from.
//
//hotline:hotpath
func gatherNonzero(ks *[gemmChunk]int32, vs *[gemmChunk]float32, x []float32, off, stride, t, n int) (m, next int) {
	for ; t < n && m < gemmChunk; t++ {
		if v := x[off+t*stride]; v != 0 {
			ks[m], vs[m] = int32(t), v
			m++
		}
	}
	return m, t
}

// axpyList computes d[j] += Σ_p vs[p]·b[ks[p]*n+j] for every j < len(d),
// adding the terms in ascending p order. Coefficients are applied four per
// pass: each pass loads d[j] once, performs the four multiply-adds in
// order and stores d[j] once, so per element the addition chain is the one
// of len(ks) separate axpy passes, with a quarter of the output traffic.
// len(d) must not exceed n.
//
//hotline:hotpath
func axpyList(d, b []float32, n int, ks []int32, vs []float32) {
	vs = vs[:len(ks)]
	p := 0
	for ; p+4 <= len(ks); p += 4 {
		a0, a1, a2, a3 := vs[p], vs[p+1], vs[p+2], vs[p+3]
		k0, k1, k2, k3 := int(ks[p])*n, int(ks[p+1])*n, int(ks[p+2])*n, int(ks[p+3])*n
		b0 := b[k0 : k0+len(d)]
		b1 := b[k1 : k1+len(d)]
		b2 := b[k2 : k2+len(d)]
		b3 := b[k3 : k3+len(d)]
		for j, v := range d {
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
			d[j] = v
		}
	}
	for ; p < len(ks); p++ {
		k := int(ks[p]) * n
		axpyUnrolled(d, b[k:k+len(d)], vs[p])
	}
}

// matMulRange computes rows [lo, hi) of dst = a x b (dst rows pre-zeroed):
// row i gathers its nonzero a[i][k], k ascending, and adds the matching
// rows of b through axpyList.
//
//hotline:hotpath
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	var ks [gemmChunk]int32
	var vs [gemmChunk]float32
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for k, m := 0, 0; k < a.Cols; {
			m, k = gatherNonzero(&ks, &vs, a.Data, i*a.Cols, 1, k, a.Cols)
			axpyList(drow, b.Data, b.Cols, ks[:m], vs[:m])
		}
	}
}

// axpyUnrolled computes dst[j] += alpha*src[j] with 4-wide unrolling. Each
// output element keeps its own addition chain, so the result is bit-equal
// to the plain loop — the unroll only exposes instruction parallelism.
//
//hotline:hotpath
func axpyUnrolled(dst, src []float32, alpha float32) {
	j := 0
	for ; j+4 <= len(src) && j+4 <= len(dst); j += 4 {
		dst[j] += alpha * src[j]
		dst[j+1] += alpha * src[j+1]
		dst[j+2] += alpha * src[j+2]
		dst[j+3] += alpha * src[j+3]
	}
	for ; j < len(src); j++ {
		dst[j] += alpha * src[j]
	}
}

// MatMul computes dst = a x b. dst must be a.Rows x b.Cols and must not
// alias a or b. Per output element the sum starts at +0 and adds
// a[i][k]·b[k][j] for every nonzero a[i][k], k ascending.
//
//hotline:hotpath
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	perRow := 2 * int64(a.Cols) * int64(b.Cols)
	if par.Serial(a.Rows, perRow) {
		matMulRange(dst, a, b, 0, a.Rows)
		return
	}
	par.ForWork(a.Rows, perRow, func(lo, hi int) {
		matMulRange(dst, a, b, lo, hi)
	})
}

// matMulTransBRange computes rows [lo, hi) of dst = a x bᵀ. Row i gathers
// its nonzero a[i][k], k ascending, then runs four dot products at a time
// (four rows of b) over that list; each sum starts at +0, parks in dst
// between chunks and keeps its own k-ascending chain.
//
//hotline:hotpath
func matMulTransBRange(dst, a, b *Matrix, lo, hi int) {
	var ks [gemmChunk]int32
	var vs [gemmChunk]float32
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k, m := 0, 0; k < a.Cols; {
			m, k = gatherNonzero(&ks, &vs, a.Data, i*a.Cols, 1, k, a.Cols)
			dotList(drow, b, ks[:m], vs[:m])
		}
	}
}

// dotList computes d[j] += Σ_p vs[p]·b[j][ks[p]] for every row j of b,
// adding the terms in ascending p order, four rows of b per pass.
//
//hotline:hotpath
func dotList(d []float32, b *Matrix, ks []int32, vs []float32) {
	vs = vs[:len(ks)]
	c := b.Cols
	j := 0
	for ; j+4 <= b.Rows; j += 4 {
		b0 := b.Data[j*c : j*c+c]
		b1 := b.Data[(j+1)*c : (j+1)*c+c]
		b2 := b.Data[(j+2)*c : (j+2)*c+c]
		b3 := b.Data[(j+3)*c : (j+3)*c+c]
		s0, s1, s2, s3 := d[j], d[j+1], d[j+2], d[j+3]
		for p, k := range ks {
			v := vs[p]
			s0 += v * b0[k]
			s1 += v * b1[k]
			s2 += v * b2[k]
			s3 += v * b3[k]
		}
		d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
	}
	for ; j < b.Rows; j++ {
		brow := b.Data[j*c : j*c+c]
		s := d[j]
		for p, k := range ks {
			s += vs[p] * brow[k]
		}
		d[j] = s
	}
}

// MatMulTransB computes dst = a x bᵀ. dst must be a.Rows x b.Rows.
//
// Per output element the sum starts at +0 and adds a[i][k]·b[j][k] for
// every nonzero a[i][k], k ascending. For finite b this equals the full
// dot product bit for bit: a zero coefficient contributes ±0, the +0 start
// never turns into −0, and adding ±0 leaves any other sum unchanged. A NaN
// or ±Inf in b, however, reaches only the outputs whose coefficient for it
// is nonzero (the full product 0·Inf would have been NaN).
//
//hotline:hotpath
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	perRow := 2 * int64(a.Cols) * int64(b.Rows)
	if par.Serial(a.Rows, perRow) {
		matMulTransBRange(dst, a, b, 0, a.Rows)
		return
	}
	par.ForWork(a.Rows, perRow, func(lo, hi int) {
		matMulTransBRange(dst, a, b, lo, hi)
	})
}

// matMulTransARange computes output rows (columns of a) [lo, hi) of
// dst = aᵀ x b (dst rows pre-zeroed): output row i gathers the nonzero
// entries of column i of a, r ascending, and adds the matching rows of b
// through axpyList. Every shard split gives each output element the same
// ascending-r addition chain, so the result is bit-identical for every
// worker count.
//
//hotline:hotpath
func matMulTransARange(dst, a, b *Matrix, lo, hi int) {
	var ks [gemmChunk]int32
	var vs [gemmChunk]float32
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for r, m := 0, 0; r < a.Rows; {
			m, r = gatherNonzero(&ks, &vs, a.Data, i, a.Cols, r, a.Rows)
			axpyList(drow, b.Data, b.Cols, ks[:m], vs[:m])
		}
	}
}

// MatMulTransA computes dst = aᵀ x b. dst must be a.Cols x b.Cols. Per
// output element the sum starts at +0 and adds a[r][i]·b[r][j] for every
// nonzero a[r][i], r ascending.
//
//hotline:hotpath
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	perCol := 2 * int64(a.Rows) * int64(b.Cols)
	if par.Serial(a.Cols, perCol) {
		matMulTransARange(dst, a, b, 0, a.Cols)
		return
	}
	// Each goroutine owns whole output rows (columns of a).
	par.ForWork(a.Cols, perCol, func(lo, hi int) {
		matMulTransARange(dst, a, b, lo, hi)
	})
}

// AddBiasRow adds bias (length m.Cols) to every row of m in place.
//
//hotline:hotpath
func AddBiasRow(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBiasRow bias len %d want %d", len(bias), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += bias[c]
		}
	}
}

// sumRowsRange accumulates columns [lo, hi) of the column-wise sum of m
// into dst, over r in ascending order.
//
//hotline:hotpath
func sumRowsRange(dst []float32, m *Matrix, lo, hi int) {
	cols := m.Cols
	for c := lo; c < hi; c++ {
		for r := 0; r < m.Rows; r++ {
			dst[c] += m.Data[r*cols+c]
		}
	}
}

// SumRowsInto accumulates the column-wise sum of m into dst (length m.Cols).
//
//hotline:hotpath
func SumRowsInto(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRowsInto dst len %d want %d", len(dst), m.Cols))
	}
	if par.Serial(m.Cols, int64(m.Rows)) {
		// Row-outer on a single core; per output element the addition order
		// (r ascending) matches the column-parallel form bit for bit.
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for c := range row {
				dst[c] += row[c]
			}
		}
		return
	}
	par.ForWork(m.Cols, int64(m.Rows), func(lo, hi int) {
		sumRowsRange(dst, m, lo, hi)
	})
}

// Add computes dst = a + b element-wise; shapes must match.
func Add(dst, a, b *Matrix) {
	checkSameShape("Add", a, b)
	checkSameShape("Add(dst)", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// axpyRange computes dst[lo:hi] += alpha*src[lo:hi].
//
//hotline:hotpath
func axpyRange(dst *Matrix, alpha float32, src *Matrix, lo, hi int) {
	d, s := dst.Data, src.Data
	for i := lo; i < hi; i++ {
		d[i] += alpha * s[i]
	}
}

// AxpyInto computes dst += alpha*src element-wise.
//
//hotline:hotpath
func AxpyInto(dst *Matrix, alpha float32, src *Matrix) {
	checkSameShape("AxpyInto", dst, src)
	if par.Serial(len(dst.Data), 1) {
		axpyRange(dst, alpha, src, 0, len(dst.Data))
		return
	}
	par.ForWork(len(dst.Data), 1, func(lo, hi int) {
		axpyRange(dst, alpha, src, lo, hi)
	})
}

// Scale multiplies every element of m by alpha in place.
//
//hotline:hotpath
func Scale(m *Matrix, alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Apply maps f over every element of src into dst (shapes must match; dst
// may alias src).
func Apply(dst, src *Matrix, f func(float32) float32) {
	checkSameShape("Apply", dst, src)
	par.ForWork(len(src.Data), 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] = f(src.Data[i])
		}
	})
}

// hadamardRange computes dst[lo:hi] = a[lo:hi] ⊙ b[lo:hi].
//
//hotline:hotpath
func hadamardRange(dst, a, b *Matrix, lo, hi int) {
	d, x, y := dst.Data, a.Data, b.Data
	for i := lo; i < hi; i++ {
		d[i] = x[i] * y[i]
	}
}

// Hadamard computes dst = a ⊙ b element-wise.
//
//hotline:hotpath
func Hadamard(dst, a, b *Matrix) {
	checkSameShape("Hadamard", a, b)
	checkSameShape("Hadamard(dst)", dst, a)
	if par.Serial(len(dst.Data), 1) {
		hadamardRange(dst, a, b, 0, len(dst.Data))
		return
	}
	par.ForWork(len(dst.Data), 1, func(lo, hi int) {
		hadamardRange(dst, a, b, lo, hi)
	})
}

// Transpose returns mᵀ as a new matrix.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			out.Data[c*m.Rows+r] = row[c]
		}
	}
	return out
}

// MaxAbsDiff returns the max absolute element-wise difference between a and b.
func MaxAbsDiff(a, b *Matrix) float32 {
	checkSameShape("MaxAbsDiff", a, b)
	var max float32
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
