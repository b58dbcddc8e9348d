// Package tensor provides the dense float32 linear-algebra kernels used by
// the functional training layer (MLPs, feature interaction, attention).
//
// The package is deliberately small: recommendation models need dense GEMM,
// element-wise maps, bias broadcast, and a seeded RNG for reproducible
// initialisation. Everything operates on row-major Matrix values.
//
// Above a size threshold the GEMM and element-wise kernels shard their
// independent output rows/elements across the par worker pool. Each output
// element is always computed by one goroutine with the serial loop's exact
// operation order, so results are bit-identical for every worker count.
//
// The GEMMs are compacted: each output row gathers the nonzero coefficients
// of the operand it walks into 64-entry stack arrays, inner index
// ascending, and applies them four per pass — MatMul and MatMulTransA load
// and store each output element once per four coefficients, MatMulTransB
// runs four dot products at a time over the list. Every output element
// still starts at +0 and adds exactly its nonzero-coefficient terms in
// ascending inner-index order, the chain of the plain zero-skipping loop.
// Skipping zero coefficients in MatMulTransB is bit-neutral for finite
// operands; a NaN or ±Inf in its b reaches only the outputs whose
// coefficient for it is nonzero.
//
// In the DESIGN.md layering this is the bottom of the functional stack:
// nn, embedding and model all build on these kernels.
//
//hotline:deterministic
package tensor
