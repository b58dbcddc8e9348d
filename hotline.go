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
	"hotline/internal/metrics"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/shard/chaos"
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
	// Avazu returns the RM4 workload (DLRM, 21 sparse features).
	Avazu = data.Avazu
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

// CurvePoint is one evaluation sample along a training run.
type CurvePoint = train.CurvePoint

// MetricSummary bundles accuracy/AUC/logloss.
type MetricSummary = metrics.Summary

// NewBaselineTrainer returns the standard mini-batch SGD executor.
func NewBaselineTrainer(m *Model, lr float32) Trainer { return train.NewBaseline(m, lr) }

// NewHotlineTrainer returns the µ-batch executor backed by the accelerator's
// EAL classification. Its updates are at parity with the baseline (Eq. 5).
func NewHotlineTrainer(m *Model, lr float32) *train.HotlineTrainer {
	return train.NewHotline(m, lr)
}

// RunTraining trains and returns the metric curve.
var RunTraining = train.Run

// ParityReport compares baseline and Hotline executors on identical data.
type ParityReport = train.ParityReport

// RunParity trains both executors from identical state (Fig 18 / Table V).
var RunParity = train.Parity

// Evaluate computes accuracy/AUC/logloss for predictions.
var Evaluate = metrics.Evaluate

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

// ShardStats is a snapshot of a service's measured traffic: cache
// hits/misses, gather/scatter rows and bytes, fills and evictions.
type ShardStats = shard.Stats

// CachePolicy selects the device-cache eviction policy.
type CachePolicy = shard.Policy

// Device-cache eviction policies.
const (
	CacheLRU   = shard.PolicyLRU
	CacheSRRIP = shard.PolicySRRIP
)

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

// ShardMeasurement carries measured sharding statistics (hit-rates,
// gather/scatter fractions, bytes per iteration, exposed-gather fraction)
// for the timing models.
type ShardMeasurement = pipeline.ShardMeasurement

// MeasureShardStats replays a real access stream against a sharded service
// under the given eviction policy and returns steady-state measurements
// (memoised per full configuration, including the policy).
var MeasureShardStats = pipeline.MeasureShardStats

// ShardProbe configures a MeasureShard measurement: node count, cache
// budget, batch size, eviction policy and ownership placement.
type ShardProbe = pipeline.ShardProbe

// MeasureShard is MeasureShardStats with the full probe surface, including
// the ownership placement (round-robin, capacity-weighted, hot-aware).
var MeasureShard = pipeline.MeasureShard

// NewShardedWorkload assembles a workload whose timing models consume
// measured sharding statistics instead of analytic popularity fractions.
// cacheBytes <= 0 selects the dataset's scaled hot-set budget. The
// exposed-gather fraction is measured too (MeasureOverlapExposedDepth at the
// default pipeline depth), so the Hotline model prices overlap from the
// pipelined engine by default.
var NewShardedWorkload = pipeline.NewShardedWorkload

// MeasureOverlapExposedDepth runs the pipelined Hotline executor
// functionally — synchronous (depth 1) vs the depth-k prefetch pipeline —
// and returns the measured fraction of gather wall time left exposed
// (memoised per dataset, node count, cache budget and depth; k < 1 selects
// the default depth): the mn-depth scenario's queue-depth-vs-staleness
// sweep.
var MeasureOverlapExposedDepth = pipeline.MeasureOverlapExposedDepth

// NewShardedWorkloadDepth is NewShardedWorkload with the overlap measured
// at an explicit pipeline depth k.
var NewShardedWorkloadDepth = pipeline.NewShardedWorkloadDepth

// DefaultShardCacheBytes returns the default per-node device-cache budget
// for a dataset (its scaled hot-set budget).
var DefaultShardCacheBytes = pipeline.DefaultShardCacheBytes

// --- ownership placement and async gather overlap --------------------------

// ShardPartitioner decides which node owns each embedding row; plug one
// into ShardConfig.Part to replace the round-robin default.
type ShardPartitioner = shard.Partitioner

// ShardPlacementKind names the shipped ownership policies for probes and
// reports.
type ShardPlacementKind = shard.PlacementKind

// Shipped ownership placements.
const (
	PlaceRoundRobin = shard.PlaceRoundRobin
	PlaceCapacity   = shard.PlaceCapacity
	PlaceHotAware   = shard.PlaceHotAware
)

// NewRoundRobinPartitioner returns the uniform row % nodes placement.
var NewRoundRobinPartitioner = shard.NewRoundRobin

// NewCapacityWeightedPartitioner spreads rows proportionally to integer
// per-node capacity weights (heterogeneous clusters).
var NewCapacityWeightedPartitioner = shard.NewCapacityWeighted

// NewCapacityWeightedHBMPartitioner derives the capacity-weighted placement
// from real per-node HBM byte budgets (each node's device-memory allowance
// at the given row footprint) instead of hand-picked weights.
var NewCapacityWeightedHBMPartitioner = shard.NewCapacityWeightedHBM

// ShardRequestCounter tallies per-node request counts from access streams;
// its HotAware method builds the placement that pins popular rows to their
// dominant requesting node.
type ShardRequestCounter = shard.RequestCounter

// NewShardRequestCounter returns an empty request counter for a topology.
var NewShardRequestCounter = shard.NewRequestCounter

// OverlapStats aggregates the async gather engine's measured traffic and
// how much of its wall time stayed exposed (svc.Gatherer().Stats()).
type OverlapStats = shard.OverlapStats

// AsyncGatherer is the engine that streams planned fabric fetches into
// staging buffers off the consumer's critical path.
type AsyncGatherer = shard.AsyncGatherer

// --- transport fabric -------------------------------------------------------

// Transport moves the shard service's cross-node traffic: per-owner gather
// fetch lists into staging buffers, and pre-reduced scatter updates back to
// the owning node. The in-proc default is a zero-overhead direct path;
// SocketTransport speaks the length-prefixed binary framing to real
// NodeServer peers. Plug one in with ShardService.SetTransport before
// tables are registered.
type Transport = shard.Transport

// InprocTransport is the explicit form of the default shared-address-space
// fast path (bit-for-bit and allocation-for-allocation identical to not
// setting a transport at all).
var InprocTransport = shard.NewInproc

// FabricConfig describes a socket fabric to dial: network family
// ("unix"/"tcp"), one listen address per shard node, per-op timeout.
type FabricConfig = shard.FabricConfig

// SocketTransport is the framed-protocol Transport over unix or TCP
// sockets, one connection per peer node.
type SocketTransport = shard.SocketTransport

// DialFabric connects a SocketTransport to already-listening node servers
// (e.g. hotline-node worker processes).
var DialFabric = shard.DialFabric

// NodeServer is one shard node of the multi-process fabric: it owns its
// rows authoritatively and answers framed fetch/push requests
// (cmd/hotline-node wraps it in a process).
type NodeServer = shard.NodeServer

// ServeNode starts a NodeServer listening on the given address (unix
// socket path, or host:port — port 0 picks a free port).
var ServeNode = shard.ServeNode

// LocalFabric bundles in-process node servers with a connected transport:
// real sockets and framing without separate OS processes (tests, examples,
// and hotline-bench's fallback when hotline-node is not on PATH).
type LocalFabric = shard.LocalFabric

// StartLocalFabric spins up nodes in-process NodeServers on the network
// family ("unix" or "tcp") and dials them.
func StartLocalFabric(nodes int, network string) (*LocalFabric, error) {
	return shard.StartLocalFabric(nodes, network, 0, nil)
}

// --- fault tolerance & recovery ---------------------------------------------

// FabricTimeouts are the socket fabric's validated timeout knobs: Dial
// (connection establishment), IO (per-operation read/write deadlines) and
// Retry (one recovery's total re-dial budget). Zero fields take documented
// non-zero defaults; negative fields are a config error.
type FabricTimeouts = shard.FabricTimeouts

// ResilientTransport layers retry, re-dial, mirror resync and spare
// adoption over a dialed SocketTransport: transient I/O failures recover,
// protocol corruption surfaces immediately, and per-peer health is
// observable (ShardService.PeerHealth).
type ResilientTransport = shard.ResilientTransport

// NewResilientTransport wraps a dialed socket fabric in the retry/re-dial
// policy. The zero RetryConfig is a working production config.
var NewResilientTransport = shard.NewResilientTransport

// RetryConfig tunes the resilient layer: attempt/redial bounds, backoff
// schedule, injectable clock, address re-resolution and spare-node
// adoption.
type RetryConfig = shard.RetryConfig

// PeerHealth is one peer's recovery snapshot: state (alive/suspect/dead),
// consecutive failures, re-dials, spare adoption, last error.
type PeerHealth = shard.PeerHealth

// RecoveryConfig selects the service's recovery policy: RecoverNone
// (fail-fast, the default), RecoverRedial (transport-level retry only), or
// RecoverAdopt (surviving nodes adopt a dead peer's shard, bit-identically).
type RecoveryConfig = shard.RecoveryConfig

// RecoveryPolicy names a recovery policy.
type RecoveryPolicy = shard.RecoveryPolicy

// Recovery policies, in escalation order.
const (
	RecoverNone   = shard.RecoverNone
	RecoverRedial = shard.RecoverRedial
	RecoverAdopt  = shard.RecoverAdopt
)

// RecoveryStats counts what recovery cost: shard adoptions, migrated and
// resynced row payload, re-routed window fetches, recovery wall clock.
type RecoveryStats = shard.RecoveryStats

// ChaosSchedule is a deterministic fault schedule (kill/restart/delay/
// corrupt events at training-window granularity) for recovery testing.
type ChaosSchedule = chaos.Schedule

// SeededChaosSchedule derives a deterministic kill/restart (+link-delay)
// schedule from a seed: same inputs, same faults, every run.
var SeededChaosSchedule = chaos.Seeded

// ChaosMeasurement is one functional training run through an injected
// fault: recovery latency, migration/resync payload, stale-served rows and
// the bit-parity evidence against the fault-free reference.
type ChaosMeasurement = pipeline.ChaosMeasurement

// MeasureChaos kills a peer mid-training under a deterministic schedule and
// measures what the chosen recovery policy cost (the mn-chaos scenario).
var MeasureChaos = pipeline.MeasureChaos

// FabricMeasurement is one functional training run over a real fabric:
// measured gather/scatter wall clock plus bit-parity evidence against the
// in-proc reference.
type FabricMeasurement = pipeline.FabricMeasurement

// MeasureFabricDepth trains the pipelined executor over a socket fabric at
// an explicit pipeline depth, iteration count and batch size, and reports
// the measured gather/scatter wall clock plus parity against the in-proc
// reference.
var MeasureFabricDepth = pipeline.MeasureFabricDepth

// --- online serving and the load harness -----------------------------------

// Server answers prediction requests from weight-sharing model replicas
// behind a read/write lock: concurrent Predicts, exclusive Train steps.
// The read path never consumes prefetch windows or touches backward state,
// so a mixed train+serve run leaves training bit-identical to train-only;
// serve traffic is booked into the shard service's serve-side counters
// (ShardService.ServeSnapshot) while still warming the shared device
// caches.
type Server = serve.Server

// NewServer wraps a model in n predict replicas (model shadows; n <= 0
// means 1). Wrap training steps in Server.Train to serialise them against
// in-flight predicts.
var NewServer = serve.NewServer

// ServeRequest is one inference request: a batch to score plus the drift
// day it was drawn from.
type ServeRequest = serve.Request

// ServeCorpus is a deterministic request stream across drift days.
type ServeCorpus = serve.Corpus

// BuildServeCorpus draws a corpus from the Zipf/drifting generator:
// perDay request batches of batchSize samples for each of days days.
var BuildServeCorpus = serve.BuildCorpus

// LoadConfig drives one open-loop load run (target QPS, request cap,
// player bound).
type LoadConfig = serve.LoadConfig

// LoadReport is one load run's throughput and latency measurements.
type LoadReport = serve.LoadReport

// LatencySummary holds exact nearest-rank latency percentiles
// (p50/p90/p99/p999) over a full sample set.
type LatencySummary = serve.LatencySummary

// RunLoad replays a corpus against a server at a target QPS with bounded
// parallel request players; latency is measured from each request's
// scheduled arrival, so saturation shows up as queueing in the tail.
var RunLoad = serve.RunLoad

// SummarizeLatency computes the exact percentile summary of a latency
// sample set (reordering it in place).
var SummarizeLatency = serve.Summarize

// SweepPoint is one rate's report within a saturation sweep.
type SweepPoint = serve.SweepPoint

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

// System is a simulated training server or cluster (paper Table III).
type System = cost.System

// PaperSystem returns the single-node evaluation server with n GPUs.
var PaperSystem = cost.PaperSystem

// PaperCluster returns an n-node cluster with 4 GPUs per node.
var PaperCluster = cost.PaperCluster

// Workload bundles a dataset, batch size and system for the timing models.
type Workload = pipeline.Workload

// NewWorkload assembles a workload with measured popularity statistics.
var NewWorkload = pipeline.NewWorkload

// TrainingPipeline is one training-system timing model.
type TrainingPipeline = pipeline.Pipeline

// IterStats is one steady-state iteration's timing and phase breakdown.
type IterStats = pipeline.IterStats

// Pipeline constructors for every system the paper compares.
var (
	// NewHotlinePipeline is the accelerator-pipelined Hotline system.
	NewHotlinePipeline = pipeline.NewHotline
	// NewHotlineCPUPipeline is the CPU-segregation ablation (§VII-D).
	NewHotlineCPUPipeline = pipeline.NewHotlineCPU
	// NewIntelDLRMPipeline is the hybrid CPU-GPU Intel-optimized baseline.
	NewIntelDLRMPipeline = pipeline.NewIntelDLRM
	// NewXDLPipeline is the parameter-server XDL baseline.
	NewXDLPipeline = pipeline.NewXDL
	// NewFAEPipeline is the static popularity scheduler baseline.
	NewFAEPipeline = pipeline.NewFAE
	// NewHugeCTRPipeline is the GPU-only (model-parallel HBM) baseline.
	NewHugeCTRPipeline = pipeline.NewHugeCTR
	// NewScratchPipePipeline is the idealised lookahead-cache comparator.
	NewScratchPipePipeline = pipeline.NewScratchPipeIdeal
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

// ExperimentResult is one experiment's outcome within a concurrent sweep:
// its table (or captured error) plus the wall-clock duration.
type ExperimentResult = experiments.SweepResult

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
