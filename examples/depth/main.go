// Depth-k prefetch pipeline: the Hotline executor stages up to k-1 future
// mini-batches — accelerator classification plus their non-popular fabric
// gathers — so up to k gather windows stream while earlier iterations
// finish. Staged rows that a later sparse update rewrites are delta-
// repaired before use, keeping every depth bit-identical to batch-by-batch
// stepping; the opt-in stale mode (ShardService.SetStaleReads) skips the
// repair and lets you measure what that staleness costs. This example
// sweeps k and prints the measured exposed-gather fraction and the repair
// traffic each depth pays.
//
//	go run ./examples/depth
package main

import (
	"fmt"

	"hotline"
)

func main() {
	cfg := hotline.CriteoKaggle()
	cfg.Samples = 2048
	const iters, batch, seed, nodes = 10, 256, 42, 4

	run := func(depth int, stale bool) (*hotline.Model, hotline.OverlapStats) {
		svc := hotline.NewShardService(hotline.ShardConfig{
			Nodes:      nodes,
			CacheBytes: hotline.DefaultShardCacheBytes(cfg),
			RowBytes:   int64(cfg.EmbedDim) * 4,
		}, nil)
		svc.SetStaleReads(stale)
		tr := hotline.NewHotlineShardedTrainer(hotline.NewModel(cfg, seed), 0.1, svc)
		tr.Depth = depth
		tr.LearnSamples = 512
		gen := hotline.NewGenerator(cfg)
		batches := make([]*hotline.Batch, iters)
		for i := range batches {
			batches[i] = gen.NextBatch(batch)
		}
		for i := 0; i < iters; i++ {
			tr.StepLookahead(batches[i], batches[i+1:])
		}
		return tr.M, svc.Gatherer().Stats()
	}

	refM, syncStats := run(1, false)
	fmt.Printf("Depth-k prefetch pipeline (%d nodes, Criteo Kaggle, sync gather %v):\n",
		nodes, syncStats.ExposedGather())
	for _, k := range []int{1, 2, 4, 8} {
		m, st := run(k, false)
		parity := "bit-identical"
		if d := hotline.MaxModelStateDiff(refM, m); d != 0 {
			parity = fmt.Sprintf("DIVERGED %g", d)
		}
		fmt.Printf("  k=%d  windows %3d  exposed %5.1f%%  repaired rows %4d (%5.1f KB)  %s\n",
			k, st.Windows, 100*frac(st, syncStats), st.RepairRows,
			float64(st.RepairBytes)/1024, parity)
	}

	// The stale ablation: skip the repair and measure the divergence.
	staleM, staleStats := run(8, true)
	fmt.Printf("  k=8 stale mode: %d rows served stale, max |Δw| %.3g vs exact training\n",
		staleStats.StaleRows, hotline.MaxModelStateDiff(refM, staleM))
}

// frac is the run's exposed share of the synchronous baseline.
func frac(overlap, sync hotline.OverlapStats) float64 {
	if sync.ExposedGather() <= 0 {
		return 0
	}
	f := float64(overlap.ExposedGather()) / float64(sync.ExposedGather())
	return min(f, 1)
}
