// Benchmarks: one testing.B target per paper table/figure (regenerating the
// experiment end-to-end), plus micro-benchmarks for the hot substrates.
// Run with: go test -bench=. -benchmem
package hotline_test

import (
	"testing"

	"hotline"
	"hotline/internal/tools/microbench"
)

// benchExperiment runs one experiment generator per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	hotline.SetExperimentTrainIters(12) // keep functional training short
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := hotline.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable1ISA(b *testing.B)            { benchExperiment(b, "tab1") }
func BenchmarkTable2Models(b *testing.B)         { benchExperiment(b, "tab2") }
func BenchmarkTable5Accuracy(b *testing.B)       { benchExperiment(b, "tab5") }
func BenchmarkFig3HybridBreakdown(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4GPUOnlyBreakdown(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5MultiNodeBreakdown(b *testing.B) {
	benchExperiment(b, "fig5")
}
func BenchmarkFig6AccessSkew(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7CPUSegregation(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8CorePlateau(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9EvolvingSkew(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig15SRRIPvsOracle(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16QueueBanks(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig18AccuracyParity(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19Speedup(b *testing.B)        { benchExperiment(b, "fig19") }
func BenchmarkFig20LatencyBreakdown(b *testing.B) {
	benchExperiment(b, "fig20")
}
func BenchmarkFig21Throughput(b *testing.B)      { benchExperiment(b, "fig21") }
func BenchmarkFig22HugeCTR(b *testing.B)         { benchExperiment(b, "fig22") }
func BenchmarkFig23CPUvsAccel(b *testing.B)      { benchExperiment(b, "fig23") }
func BenchmarkFig24ScratchPipe(b *testing.B)     { benchExperiment(b, "fig24") }
func BenchmarkFig25RatioSweep(b *testing.B)      { benchExperiment(b, "fig25") }
func BenchmarkFig26BatchSweep(b *testing.B)      { benchExperiment(b, "fig26") }
func BenchmarkFig27EALSize(b *testing.B)         { benchExperiment(b, "fig27") }
func BenchmarkFig28SyntheticModels(b *testing.B) { benchExperiment(b, "fig28") }
func BenchmarkFig29PerfPerWatt(b *testing.B)     { benchExperiment(b, "fig29") }
func BenchmarkFig30MultiNode(b *testing.B)       { benchExperiment(b, "fig30") }

// Design-choice ablations (DESIGN.md).
func BenchmarkAblEALPolicy(b *testing.B) { benchExperiment(b, "abl-eal") }
func BenchmarkAblFeistel(b *testing.B)   { benchExperiment(b, "abl-feistel") }
func BenchmarkAblOverlap(b *testing.B)   { benchExperiment(b, "abl-overlap") }
func BenchmarkAblSampling(b *testing.B)  { benchExperiment(b, "abl-sampling") }

// --- micro-benchmarks on the hot substrates -------------------------------
//
// The targets live in internal/tools/microbench, shared with the
// hotline-bench -bench runner (which records them into BENCH_<date>.json);
// these wrappers keep them reachable through `go test -bench`.

// BenchmarkEALTouch measures the Embedding Access Logger's learning-phase
// throughput (the accelerator's innermost loop).
func BenchmarkEALTouch(b *testing.B) { microbench.EALTouch(b) }

// BenchmarkEALClassify measures acceleration-phase classification of a 4K
// Criteo Kaggle mini-batch (steady state: 0 allocs/op).
func BenchmarkEALClassify(b *testing.B) { microbench.EALClassify(b) }

// BenchmarkHotlineTrainStep measures one functional Hotline training step
// (segregate + two µ-batch passes + update) on a scaled Kaggle model
// (steady state: 0 allocs/op at Parallelism(1)).
func BenchmarkHotlineTrainStep(b *testing.B) { microbench.HotlineTrainStep(b) }

// BenchmarkHotlineTrainStepPipelined is the cross-iteration pipelined
// entry point (lookahead classification staged every step).
func BenchmarkHotlineTrainStepPipelined(b *testing.B) { microbench.HotlineTrainStepPipelined(b) }

// BenchmarkHotlineTrainStepDepth4 is the train step through the depth-4
// lookahead pipeline (three mini-batches staged ahead every step).
func BenchmarkHotlineTrainStepDepth4(b *testing.B) { microbench.HotlineTrainStepDepth4(b) }

// BenchmarkDenseLinearRM2 measures Forward plus Backward through the RM2
// paper MLPs at batch 128 on ReLU-sparse inputs (the dense GEMM kernels).
func BenchmarkDenseLinearRM2(b *testing.B) { microbench.DenseLinearRM2(b) }

// BenchmarkShardedPrefetchWindow measures one async gather window end to
// end on a 4-node service (plan → queues → staging → consume → release).
func BenchmarkShardedPrefetchWindow(b *testing.B) { microbench.ShardedPrefetchWindow(b) }

// BenchmarkQuantGatherINT8 measures the fused dequantize-gather window with
// every remote row warm-tier resident at int8 (steady state: 0 allocs/op at
// Parallelism(1)); diff against BenchmarkShardedPrefetchWindow to isolate
// the quantization kernel.
func BenchmarkQuantGatherINT8(b *testing.B) { microbench.QuantGatherINT8(b) }

// BenchmarkQuantGatherFP16 is the fused dequantize-gather window with fp16
// warm rows.
func BenchmarkQuantGatherFP16(b *testing.B) { microbench.QuantGatherFP16(b) }

// BenchmarkServePredict measures one online prediction through the
// read-only serving path on a warmed 4-node sharded server (steady state:
// 0 allocs/op at Parallelism(1)).
func BenchmarkServePredict(b *testing.B) { microbench.ServePredict(b) }

// BenchmarkPipelineIteration measures the full analytic timing model for
// every pipeline on the 4-GPU Kaggle workload.
func BenchmarkPipelineIteration(b *testing.B) { microbench.PipelineIteration(b) }

// BenchmarkZipfSample measures the workload generator's inner sampler.
func BenchmarkZipfSample(b *testing.B) { microbench.ZipfSample(b) }
