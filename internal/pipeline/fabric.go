package pipeline

import (
	"fmt"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// FabricMeasurement is one functional training run over a real fabric
// transport: the measured wall clock the transport spent moving gather and
// scatter traffic — numbers the analytic cost.AllToAllTime model can be
// compared against — plus the bit-parity evidence (final loss and maximum
// parameter divergence) against the in-proc reference run of the identical
// stream.
type FabricMeasurement struct {
	// Fabric is the transport's Name() ("inproc", "unix", "tcp").
	Fabric string
	Nodes  int
	Depth  int
	Iters  int
	// FinalLoss is the last iteration's training loss.
	FinalLoss float64
	// MaxStateDiff is the largest absolute parameter difference vs the
	// in-proc reference run; 0 means bit-identical training.
	MaxStateDiff float64
	// GatherWallPerIter / ScatterWallPerIter are the measured per-iteration
	// wall-clock totals the transport spent on fetches and scatter pushes.
	GatherWallPerIter  time.Duration
	ScatterWallPerIter time.Duration
	// A2ABytesPerIter is the accounted all-to-all volume per iteration (the
	// quantity the analytic model prices).
	A2ABytesPerIter int64
	// Stats is the full training-side counter snapshot of the measured run.
	Stats shard.Stats
}

// fabricProbeShape shrinks cfg to the functional probe the fabric runs
// train: the access stream (and therefore the fabric traffic) is untouched,
// the MLPs are small so the run is dominated by what we are measuring.
func fabricProbeShape(cfg data.Config) data.Config {
	fn := cfg
	fn.Samples = 2048
	fn.BotMLP = []int{cfg.BotMLP[0], 64, cfg.EmbedDim}
	fn.TopMLP = []int{64, 1}
	return fn
}

// MeasureFabricDepth trains the pipelined Hotline executor functionally on a
// down-scaled copy of cfg twice over sharded services — once on the in-proc
// fast path as the reference, once over the requested fabric network
// ("inproc" skips the second run) — and returns the fabric run's measured
// gather/scatter wall clock together with its parity against the reference.
// The fabric run starts one NodeServer per node behind a real socket
// (unix sockets in a temp dir, or loopback TCP on port 0), so the wall
// times are honest kernel-crossing numbers even without separate OS
// processes.
func MeasureFabricDepth(cfg data.Config, nodes, depth int, network string, iters, batch int) (FabricMeasurement, error) {
	if network == "" || network == "inproc" {
		return MeasureFabricOver(cfg, nodes, depth, iters, batch, nil)
	}
	fab, err := shard.StartLocalFabric(nodes, network, 0, nil)
	if err != nil {
		return FabricMeasurement{}, fmt.Errorf("pipeline: start %s fabric: %w", network, err)
	}
	defer fab.Close()
	return MeasureFabricOver(cfg, nodes, depth, iters, batch, fab.Transport)
}

// MeasureFabricOver is MeasureFabricDepth over an already-connected
// transport — the caller owns the fabric's lifetime (e.g. the hotline-bench
// coordinator dialing real hotline-node worker processes). A nil transport
// measures only the in-proc reference run.
func MeasureFabricOver(cfg data.Config, nodes, depth int, iters, batch int, fabric shard.Transport) (FabricMeasurement, error) {
	if nodes < 2 {
		return FabricMeasurement{}, fmt.Errorf("pipeline: fabric measurement needs >= 2 nodes, got %d", nodes)
	}
	if depth < 1 {
		depth = train.DefaultPipelineDepth()
	}
	fn := fabricProbeShape(cfg)
	const seed = 42

	runOne := func(tr shard.Transport) (float64, *model.Model, shard.Stats, error) {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: DefaultShardCacheBytes(fn),
			RowBytes: int64(fn.EmbedDim) * 4,
		}, nil)
		if tr != nil {
			svc.SetTransport(tr)
		}
		defer svc.Close()
		t := train.NewHotlineSharded(model.New(fn, seed), 0.1, svc)
		t.Depth = depth
		t.LearnSamples = 512
		gen := data.NewGenerator(fn)
		batches := make([]*data.Batch, iters)
		for i := range batches {
			batches[i] = gen.NextBatch(batch)
		}
		svc.ResetStats()
		var loss float64
		for i := 0; i < iters; i++ {
			loss = t.StepLookahead(batches[i], batches[i+1:])
		}
		return loss, t.M, svc.Snapshot(), svc.FabricErr()
	}

	refLoss, refM, refStats, err := runOne(nil)
	if err != nil {
		return FabricMeasurement{}, fmt.Errorf("pipeline: in-proc reference run: %w", err)
	}

	m := FabricMeasurement{
		Fabric: "inproc", Nodes: nodes, Depth: depth, Iters: iters,
		FinalLoss:          refLoss,
		GatherWallPerIter:  refStats.GatherWall / time.Duration(iters),
		ScatterWallPerIter: refStats.ScatterWall / time.Duration(iters),
		A2ABytesPerIter:    refStats.A2ABytes() / int64(iters),
		Stats:              refStats,
	}
	if fabric == nil {
		return m, nil
	}

	loss, fm, stats, err := runOne(fabric)
	if err != nil {
		return FabricMeasurement{}, fmt.Errorf("pipeline: %s fabric run: %w", fabric.Name(), err)
	}
	m.Fabric = fabric.Name()
	m.FinalLoss = loss
	m.MaxStateDiff = model.MaxStateDiff(refM, fm)
	m.GatherWallPerIter = stats.GatherWall / time.Duration(iters)
	m.ScatterWallPerIter = stats.ScatterWall / time.Duration(iters)
	m.A2ABytesPerIter = stats.A2ABytes() / int64(iters)
	m.Stats = stats
	if loss != refLoss {
		return m, fmt.Errorf("pipeline: %s fabric diverged from in-proc: loss %v vs %v", fabric.Name(), loss, refLoss)
	}
	return m, nil
}
