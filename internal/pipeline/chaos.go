//hotline:typed-errors

package pipeline

import (
	"fmt"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/shard/chaos"
	"hotline/internal/train"
)

// ChaosMeasurement is one functional training run through an injected fault:
// a peer killed mid-pipeline by a deterministic chaos schedule, recovered
// under the requested policy, with the recovery costs measured and the
// bit-parity evidence against the fault-free in-proc reference attached.
type ChaosMeasurement struct {
	Fabric string
	Nodes  int
	Depth  int
	Iters  int
	// Policy is the recovery policy's name ("redial" or "adopt").
	Policy string
	// Schedule is the applied chaos schedule, rendered ("w1:kill(1) ...").
	Schedule string
	// FinalLoss / MaxStateDiff are the parity evidence vs the fault-free
	// in-proc reference run of the identical stream; MaxStateDiff 0 means
	// the recovered run trained bit-identically through the fault.
	FinalLoss    float64
	MaxStateDiff float64
	// RecoveryWall is the measured wall clock recovery took: the transport's
	// successful re-dial recoveries plus the service's failover work.
	RecoveryWall time.Duration
	// Redials / Adoptions count transport re-dials and shard failovers.
	Redials   int
	Adoptions int
	// MigratedBytes is the row payload failover moved to new owners;
	// ResyncBytes is the payload re-dial recovery pushed to restore
	// restarted (empty) nodes; RefetchedRows counts rows whose window
	// fetches were replayed through recovery re-routing.
	MigratedBytes int64
	ResyncBytes   int64
	RefetchedRows int64
	// StaleServeRows counts rows the serve probe answered from the warmed
	// mirror while the peer was down (graceful degradation, not errors).
	StaleServeRows int64
	// Stats is the training-side counter snapshot of the chaos run.
	Stats shard.Stats
}

// MeasureChaos trains the pipelined executor functionally on a down-scaled
// copy of cfg twice — fault-free in-proc as the reference, then over a chaos
// fabric (one killable NodeServer per node) where the schedule kills the
// highest-numbered peer at window 1: under RecoverRedial the peer restarts
// on a new address after restartAfter and the transport re-dials it; under
// RecoverAdopt it stays dead and the survivors adopt its shard. Each window
// also issues one serve-path gather, so an outage's graceful degradation
// (StaleServeRows) is measured in the same run. The returned measurement
// carries the recovery costs and the bit-parity evidence; an error means
// the run did not recover.
func MeasureChaos(cfg data.Config, nodes, depth int, network string,
	iters, batch int, policy shard.RecoveryPolicy, restartAfter time.Duration) (ChaosMeasurement, error) {
	if nodes < 2 {
		return ChaosMeasurement{}, fmt.Errorf("chaos measurement needs >= 2 nodes, got %d: %w", nodes, shard.ErrFabricConfig)
	}
	if depth < 1 {
		depth = train.DefaultPipelineDepth()
	}
	fn := fabricProbeShape(cfg)
	const seed = 42
	victim := nodes - 1

	var sched chaos.Schedule
	retry := shard.RetryConfig{}
	switch policy {
	case shard.RecoverRedial:
		sched = chaos.KillRestart(victim, 1, restartAfter)
		retry.MaxRedials = 40
		retry.Budget = 30 * time.Second
	case shard.RecoverAdopt:
		sched = chaos.Kill(victim, 1)
		retry.MaxAttempts = 1
		retry.MaxRedials = 2
		retry.Backoff = func(int) time.Duration { return 0 }
	default:
		return ChaosMeasurement{}, fmt.Errorf("chaos measurement needs a recovery policy, got %v: %w", policy, shard.ErrFabricConfig)
	}

	runOne := func(fab *chaos.Fabric) (float64, *model.Model, *shard.Service, error) {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: DefaultShardCacheBytes(fn),
			RowBytes: int64(fn.EmbedDim) * 4,
		}, nil)
		var rt *shard.ResilientTransport
		if fab != nil {
			svc.SetRecovery(shard.RecoveryConfig{Policy: policy})
			var err error
			if rt, err = fab.Dial(retry); err != nil {
				svc.Close()
				return 0, nil, nil, err
			}
			svc.SetTransport(rt)
		}
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
			if fab != nil {
				fab.Tick(i)
				serveProbe(svc, batches[i])
			}
			loss = t.StepLookahead(batches[i], batches[i+1:])
		}
		return loss, t.M, svc, svc.FabricErr()
	}

	refLoss, refM, refSvc, err := runOne(nil)
	if err != nil {
		return ChaosMeasurement{}, fmt.Errorf("chaos in-proc reference run: %w", err)
	}
	refSvc.Close()

	fab, err := chaos.NewFabric(nodes, network, shard.FabricTimeouts{})
	if err != nil {
		return ChaosMeasurement{}, err
	}
	defer fab.Close()
	fab.SetSchedule(sched)
	loss, fm, svc, err := runOne(fab)
	if err != nil {
		if svc != nil {
			svc.Close()
		}
		return ChaosMeasurement{}, fmt.Errorf("chaos %s run (%s): %w", policy, sched, err)
	}

	m := ChaosMeasurement{
		Fabric: network, Nodes: nodes, Depth: depth, Iters: iters,
		Policy:       policy.String(),
		Schedule:     sched.String(),
		FinalLoss:    loss,
		MaxStateDiff: model.MaxStateDiff(refM, fm),
		Stats:        svc.Snapshot(),
	}
	rec := svc.RecoveryStats()
	m.Adoptions = rec.Adoptions
	m.MigratedBytes = rec.MigratedBytes
	m.ResyncBytes = rec.ResyncBytes
	m.RefetchedRows = rec.Refetches
	m.RecoveryWall = rec.RecoveryWall
	if rt, ok := svc.Transport().(*shard.ResilientTransport); ok {
		m.RecoveryWall += rt.RecoveryWall()
	}
	for _, h := range svc.PeerHealth() {
		m.Redials += h.Redials
	}
	m.StaleServeRows = svc.ServeSnapshot().StaleServeRows
	svc.Close()
	if loss != refLoss {
		return m, fmt.Errorf("chaos %s run diverged from fault-free reference: loss %v vs %v: %w",
			policy, loss, refLoss, shard.ErrPeerDead)
	}
	return m, nil
}

// serveProbe issues one serve-path gather for the batch's first sparse
// table, exercising graceful degradation while a peer is down. Serve-side
// staging comes from the gatherer ring and is released immediately; the
// training counters never move.
func serveProbe(svc *shard.Service, b *data.Batch) {
	g := svc.Gatherer()
	if g == nil || len(b.Sparse) == 0 {
		return
	}
	plan := svc.PlanServeGather(0, b.Sparse[0])
	if plan == nil {
		return
	}
	dim := svc.Config().RowBytes / 4
	st := svc.ServeGatherSync(plan, int(dim), func(row int32, dst []float32) {})
	g.Release(st)
}
