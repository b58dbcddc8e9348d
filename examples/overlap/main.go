// Async gather overlap and ownership placement on the sharded substrate:
// the Hotline executor prefetches the non-popular µ-batch's remote
// embedding rows so the fabric gather streams while the popular µ-batch
// computes, and row ownership can follow the request skew instead of blind
// round-robin. Training stays bit-identical in every mode — what changes,
// and what this example prints, is the measured traffic: how much gather
// wall time stayed exposed, and how many all-to-all bytes each placement
// moves.
//
//	go run ./examples/overlap
package main

import (
	"fmt"

	"hotline"
)

func main() {
	cfg := hotline.CriteoKaggle()
	cfg.Samples = 2048
	const iters, batch, seed, nodes = 10, 256, 42, 4

	// --- async overlap: synchronous (depth 1) vs prefetched gathers -----
	run := func(depth int) (*hotline.Model, hotline.OverlapStats) {
		svc := hotline.NewShardService(hotline.ShardConfig{
			Nodes:      nodes,
			CacheBytes: hotline.DefaultShardCacheBytes(cfg),
			RowBytes:   int64(cfg.EmbedDim) * 4,
		}, nil)
		tr := hotline.NewHotlineShardedTrainer(hotline.NewModel(cfg, seed), 0.1, svc)
		tr.Depth = depth
		tr.LearnSamples = 512
		gen := hotline.NewGenerator(cfg)
		for i := 0; i < iters; i++ {
			tr.Step(gen.NextBatch(batch))
		}
		return tr.M, svc.Gatherer().Stats()
	}
	syncM, syncStats := run(1)
	overM, overStats := run(2)

	fmt.Println("Async gather overlap (4 nodes, Criteo Kaggle):")
	fmt.Printf("  synchronous: %5d rows gathered inline, %8v exposed\n",
		syncStats.SyncRows, syncStats.SyncGather)
	fmt.Printf("  overlapped:  %5d rows prefetched,      %8v exposed (%v inline + %v await)\n",
		overStats.PrefetchRows, overStats.ExposedGather(),
		overStats.SyncGather, overStats.Exposed)
	parity := "bit-identical"
	if d := hotline.MaxModelStateDiff(syncM, overM); d != 0 {
		parity = fmt.Sprintf("DIVERGED %g", d)
	}
	fmt.Printf("  model state across modes: %s\n", parity)

	// --- ownership placement: who owns the popular rows ------------------
	fmt.Println("\nOwnership placement (4 nodes, cache at 1/8 hot budget):")
	full := hotline.CriteoKaggle()
	cache := hotline.DefaultShardCacheBytes(full) / 8
	for _, kind := range []hotline.ShardPlacementKind{
		hotline.PlaceRoundRobin, hotline.PlaceCapacity, hotline.PlaceHotAware,
	} {
		probe := hotline.ShardProbe{Nodes: nodes, CacheBytes: cache, Batch: 1024, Placement: kind}
		if kind == hotline.PlaceCapacity {
			// Ownership weights derive from real per-node HBM budgets.
			probe.HBMBytes = []int64{4 * cache, 2 * cache, 2 * cache, cache}
		}
		m := hotline.MeasureShard(full, probe)
		fmt.Printf("  %-18s local %5.1f%%  cache hit %5.1f%%  a2a %7.1f KB/iter\n",
			m.Placement, m.LocalFrac*100, m.HitRate*100, float64(m.A2ABytesPerIter)/1024)
	}
}
