// Package hotline is the public API of this reproduction of "Heterogeneous
// Acceleration Pipeline for Recommendation System Training" (ISCA 2024).
//
// The package re-exports the stable surface of the internal substrates:
//
//   - Dataset configs and synthetic generators (the paper's Table II
//     workloads with Zipfian popularity and day-to-day drift);
//   - Functional DLRM/TBSM models with full forward/backward/SGD;
//   - The training executors: the standard baseline and the Hotline
//     µ-batch executor with its accelerator-backed input classification;
//   - The accelerator model (EAL, lookup engines, ISA, power);
//   - The performance simulator: system specs, workloads, and the seven
//     training pipelines the paper compares;
//   - The experiment harness that regenerates every table and figure.
//
// See examples/ for runnable entry points and DESIGN.md for the system map.
package hotline

import (
	"hotline/internal/accel"
	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/experiments"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// --- parallelism -----------------------------------------------------------

// Parallelism sets the worker count used by every parallel substrate — the
// batch-sharded tensor/embedding kernels, the Hotline trainer's concurrent
// µ-batch passes — and returns the previous setting. n <= 0 restores the
// default (one worker per CPU core). Results are bit-identical for every
// setting: shards only partition independent work, and cross-shard gradient
// reductions happen in fixed index order.
func Parallelism(n int) int { return par.SetWorkers(n) }

// NumWorkers returns the effective worker count (>= 1).
func NumWorkers() int { return par.Workers() }

// PipelineDepth sets the prefetch pipeline depth k newly built Hotline
// executors use — how many gather windows may be in flight at once (the one
// the current iteration consumes plus k-1 staged for future mini-batches) —
// and returns the previous default. Depth 1 degenerates to synchronous
// staged gathers; depth 2 (the default) is the classic cross-iteration
// pipeline; deeper queues hide more fabric traffic at the cost of dirty-row
// repair traffic. Training state is bit-identical for every depth: staged
// rows rewritten by intervening sparse updates are delta-repaired before
// use (unless ShardService.SetStaleReads opts into measured staleness).
// k < 1 restores the default. Executors also expose the knob per-instance
// (HotlineTrainer.Depth).
func PipelineDepth(k int) int { return train.SetDefaultPipelineDepth(k) }

// --- datasets and generators ---------------------------------------------

// DatasetConfig describes one synthetic workload (paper Table II shape).
type DatasetConfig = data.Config

// Generator produces deterministic mini-batches for a dataset.
type Generator = data.Generator

// Batch is one mini-batch of dense features, sparse indices and labels.
type Batch = data.Batch

// Dataset constructors (paper Table II).
var (
	// CriteoKaggle returns the RM2 workload (DLRM, 26 sparse features).
	CriteoKaggle = data.CriteoKaggle
	// TaobaoAlibaba returns the RM1 workload (TBSM with attention).
	TaobaoAlibaba = data.TaobaoAlibaba
	// CriteoTerabyte returns the RM3 workload (DLRM, 266M rows).
	CriteoTerabyte = data.CriteoTerabyte
	// SynM1 returns the 196 GB multi-hot synthetic model (Fig 28/30).
	SynM1 = data.SynM1
	// SynM2 returns the 390 GB multi-hot synthetic model.
	SynM2 = data.SynM2
)

// Datasets returns the four real-world workloads in paper order.
func Datasets() []DatasetConfig { return data.AllDatasets() }

// DatasetByName resolves a dataset by name or RM id ("RM3").
var DatasetByName = data.ByName

// NewGenerator builds a batch generator positioned at day 0.
func NewGenerator(cfg DatasetConfig) *Generator { return data.NewGenerator(cfg) }

// --- functional models and training --------------------------------------

// Model is a DLRM or TBSM instance with full backprop.
type Model = model.Model

// NewModel builds a model with deterministic weights derived from seed.
func NewModel(cfg DatasetConfig, seed uint64) *Model { return model.New(cfg, seed) }

// Trainer consumes mini-batches and updates a model.
type Trainer = train.Trainer

// TrainRunConfig controls a training run.
type TrainRunConfig = train.RunConfig

// NewBaselineTrainer returns the standard mini-batch SGD executor.
func NewBaselineTrainer(m *Model, lr float32) Trainer { return train.NewBaseline(m, lr) }

// NewHotlineTrainer returns the µ-batch executor backed by the accelerator's
// EAL classification. Its updates are at parity with the baseline (Eq. 5).
func NewHotlineTrainer(m *Model, lr float32) *train.HotlineTrainer {
	return train.NewHotline(m, lr)
}

// RunTraining trains and returns the metric curve.
var RunTraining = train.Run

// RunParity trains the baseline and Hotline executors from identical state
// on identical data and compares them (Fig 18 / Table V).
var RunParity = train.Parity

// MaxModelStateDiff returns the largest absolute parameter difference
// between two models across dense and sparse state (0 when bit-identical).
var MaxModelStateDiff = model.MaxStateDiff

// --- sharded embedding service --------------------------------------------

// ShardConfig sizes a sharded embedding service: node count, per-node
// device-cache budget, row footprint and eviction policy.
type ShardConfig = shard.Config

// ShardService partitions embedding rows across simulated nodes with
// bounded per-node hot-entry device caches, and accounts every gather and
// gradient scatter the topology incurs.
type ShardService = shard.Service

// CacheSRRIP selects SRRIP/CLOCK device-cache eviction (ShardConfig.Policy;
// the zero value is LRU).
const CacheSRRIP = shard.PolicySRRIP

// NewShardService builds a sharded embedding service. The classifier
// decides which rows may replicate into device caches (nil admits all).
var NewShardService = shard.New

// NewHotlineShardedTrainer wraps a model in the Hotline executor with its
// embedding tables partitioned across the service's nodes. Training is
// bit-identical to NewHotlineTrainer for every node count and placement;
// the service additionally reports the measured cache and all-to-all
// traffic. The async gather engine is attached, so gathers overlap compute
// at the default pipeline depth; Depth = 1 on the returned trainer is the
// synchronous ablation.
func NewHotlineShardedTrainer(m *Model, lr float32, svc *ShardService) *train.HotlineTrainer {
	return train.NewHotlineSharded(m, lr, svc)
}

// ShardProbe configures a MeasureShard measurement: node count, cache
// budget, batch size, eviction policy and ownership placement.
type ShardProbe = pipeline.ShardProbe

// MeasureShard replays a real access stream against a warmed sharded
// service configured by the probe — including its eviction policy and
// ownership placement (round-robin, capacity-weighted, hot-aware) — and
// returns steady-state hit-rates, gather/scatter fractions and bytes per
// iteration (memoised per full probe).
var MeasureShard = pipeline.MeasureShard

// NewShardedWorkload assembles a workload whose timing models consume
// measured sharding statistics instead of analytic popularity fractions.
// cacheBytes <= 0 selects the dataset's scaled hot-set budget. The
// exposed-gather fraction is measured too, by running the pipelined
// executor at the given depth (depth < 1 selects the default pipeline
// depth), so the Hotline model prices overlap from the pipelined engine.
var NewShardedWorkload = pipeline.NewShardedWorkload

// DefaultShardCacheBytes returns the default per-node device-cache budget
// for a dataset (its scaled hot-set budget).
var DefaultShardCacheBytes = pipeline.DefaultShardCacheBytes

// --- ownership placement and async gather overlap --------------------------

// ShardPlacementKind names the shipped ownership policies for probes and
// reports.
type ShardPlacementKind = shard.PlacementKind

// Shipped ownership placements.
const (
	PlaceRoundRobin = shard.PlaceRoundRobin
	PlaceCapacity   = shard.PlaceCapacity
	PlaceHotAware   = shard.PlaceHotAware
)

// OverlapStats aggregates the async gather engine's measured traffic and
// how much of its wall time stayed exposed (svc.Gatherer().Stats()).
type OverlapStats = shard.OverlapStats

// --- socket fabric and fault tolerance --------------------------------------

// RecoveryConfig selects a socket-fabric service's recovery policy
// (ShardService.SetRecovery): fail-fast by default, RecoverRedial for
// transport-level retry, or shard adoption by the surviving nodes.
type RecoveryConfig = shard.RecoveryConfig

// RecoverRedial is the transport-level retry and re-dial recovery policy.
const RecoverRedial = shard.RecoverRedial

// MeasureFabricDepth trains the pipelined executor over a socket fabric at
// an explicit pipeline depth, iteration count and batch size, and reports
// the measured gather/scatter wall clock plus parity against the in-proc
// reference.
var MeasureFabricDepth = pipeline.MeasureFabricDepth

// --- online serving and the load harness -----------------------------------

// NewServer wraps a model in n predict replicas (model shadows; n <= 0
// means 1). Wrap training steps in the server's Train to serialise them
// against in-flight predicts.
var NewServer = serve.NewServer

// BuildServeCorpus draws a corpus from the Zipf/drifting generator:
// perDay request batches of batchSize samples for each of days days.
var BuildServeCorpus = serve.BuildCorpus

// LoadConfig drives one open-loop load run (target QPS, request cap,
// player bound).
type LoadConfig = serve.LoadConfig

// RunLoad replays a corpus against a server at a target QPS with bounded
// parallel request players; latency is measured from each request's
// scheduled arrival, so saturation shows up as queueing in the tail.
var RunLoad = serve.RunLoad

// SaturationSweep replays the corpus at each target rate, producing the
// QPS-vs-latency curve.
var SaturationSweep = serve.SaturationSweep

// LoadKnee returns the index of the highest-rate sweep point whose p99
// stays within budget (-1 when none does).
var LoadKnee = serve.Knee

// --- accelerator ----------------------------------------------------------

// Accelerator is the functional + timing model of the Hotline accelerator.
type Accelerator = accel.Accelerator

// AcceleratorConfig bundles EAL/engine/reducer/eDRAM settings (Table IV).
type AcceleratorConfig = accel.Config

// NewAccelerator builds an accelerator; DefaultAcceleratorConfig matches
// the paper's Table IV.
func NewAccelerator(cfg AcceleratorConfig) *Accelerator { return accel.New(cfg) }

// DefaultAcceleratorConfig is the paper's accelerator configuration.
var DefaultAcceleratorConfig = accel.DefaultConfig

// --- performance simulation ------------------------------------------------

// PaperSystem returns the single-node evaluation server with n GPUs.
var PaperSystem = cost.PaperSystem

// PaperCluster returns an n-node cluster with 4 GPUs per node.
var PaperCluster = cost.PaperCluster

// NewWorkload assembles a workload with measured popularity statistics.
var NewWorkload = pipeline.NewWorkload

// TrainingPipeline is one training-system timing model.
type TrainingPipeline = pipeline.Pipeline

// Pipeline constructors for every system the paper compares.
var (
	// NewHotlinePipeline is the accelerator-pipelined Hotline system.
	NewHotlinePipeline = pipeline.NewHotline
	// NewIntelDLRMPipeline is the hybrid CPU-GPU Intel-optimized baseline.
	NewIntelDLRMPipeline = pipeline.NewIntelDLRM
	// NewHugeCTRPipeline is the GPU-only (model-parallel HBM) baseline.
	NewHugeCTRPipeline = pipeline.NewHugeCTR
)

// Pipelines returns every pipeline in figure order.
func Pipelines() []TrainingPipeline { return pipeline.All() }

// Speedup returns a.Total/b.Total (0 when either side OOMs).
var Speedup = pipeline.Speedup

// --- experiments ------------------------------------------------------------

// ExperimentTable is one regenerated table/figure.
type ExperimentTable = report.Table

// Experiments returns every experiment id (tab1..fig30).
func Experiments() []string { return experiments.All() }

// ExperimentTitle returns an experiment's title.
var ExperimentTitle = experiments.Title

// RunExperiment regenerates one table or figure by id, e.g. "fig19".
func RunExperiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// SweepExperiments runs the given experiment ids on a bounded worker pool
// and returns one result per id in input order. workers <= 0 means NumCPU.
var SweepExperiments = experiments.Sweep

// EffectiveSweepWorkers reports the pool size SweepExperiments uses for a
// requested worker count and job count.
var EffectiveSweepWorkers = experiments.EffectiveWorkers

// RunAllExperiments regenerates experiments concurrently (every registered
// one when ids is empty) and returns their tables in stable id order. The
// sweep is deterministic: tables are byte-identical to serial RunExperiment
// calls for any worker count.
var RunAllExperiments = experiments.RunAll

// SetExperimentTrainIters adjusts functional-training experiment length.
var SetExperimentTrainIters = experiments.SetTrainIters
