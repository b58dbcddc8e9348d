// Package microbench defines the repository's micro-benchmark targets in
// one place, so `go test -bench` (bench_test.go) and the hotline-bench
// -bench runner execute identical code, and the runner can emit a
// machine-readable BENCH_<date>.json recording the performance trajectory
// (ns/op, B/op, allocs/op per target) across PRs. The checked-in bench/
// files are the reference points the zero-allocation and ≥25%-speedup
// criteria are judged against.
package microbench

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"hotline/internal/accel"
	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/nn"
	"hotline/internal/pipeline"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/tensor"
	"hotline/internal/train"
)

// Target is one named micro-benchmark over a hot substrate.
type Target struct {
	Name string
	Fn   func(b *testing.B)
}

// Targets returns every micro-benchmark in display order.
func Targets() []Target {
	return []Target{
		{"EALTouch", EALTouch},
		{"EALClassify", EALClassify},
		{"HotlineTrainStep", HotlineTrainStep},
		{"HotlineTrainStepPipelined", HotlineTrainStepPipelined},
		{"HotlineTrainStepDepth4", HotlineTrainStepDepth4},
		{"DenseLinearRM2", DenseLinearRM2},
		{"ShardedPrefetchWindow", ShardedPrefetchWindow},
		{"QuantGatherINT8", QuantGatherINT8},
		{"QuantGatherFP16", QuantGatherFP16},
		{"ServePredict", ServePredict},
		{"PipelineIteration", PipelineIteration},
		{"ZipfSample", ZipfSample},
	}
}

// EALTouch measures the Embedding Access Logger's learning-phase
// throughput (the accelerator's innermost loop).
func EALTouch(b *testing.B) {
	eal := accel.NewEAL(accel.EALConfig{SizeBytes: 1 << 20, Banks: 64, Ways: 8, BytesPerEntry: 2, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eal.Touch(i%26, int32(i%100000))
	}
}

// EALClassify measures acceleration-phase classification of a 4K Criteo
// Kaggle mini-batch (steady state: 0 allocs/op).
func EALClassify(b *testing.B) {
	cfg := data.CriteoKaggle()
	acc := accel.New(accel.DefaultConfig())
	gen := data.NewGenerator(cfg)
	for i := 0; i < 2; i++ {
		acc.LearnBatch(gen.NextBatch(1024))
	}
	batch := gen.NextBatch(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Classify(batch)
	}
}

// benchTrainCfg is the scaled Kaggle model of the train-step benchmarks.
func benchTrainCfg() data.Config {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 64, 16}
	cfg.TopMLP = []int{64, 1}
	return cfg
}

// HotlineTrainStep measures one functional Hotline training step
// (segregate + two µ-batch passes + update) on a scaled Kaggle model
// (steady state: 0 allocs/op at Parallelism(1)).
func HotlineTrainStep(b *testing.B) {
	cfg := benchTrainCfg()
	tr := train.NewHotline(model.New(cfg, 1), 0.1)
	gen := data.NewGenerator(cfg)
	batch := gen.NextBatch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(batch)
	}
}

// HotlineTrainStepPipelined is HotlineTrainStep through the
// cross-iteration pipelined entry point (StepLookahead with one batch
// staged every step).
func HotlineTrainStepPipelined(b *testing.B) {
	cfg := benchTrainCfg()
	tr := train.NewHotline(model.New(cfg, 1), 0.1)
	gen := data.NewGenerator(cfg)
	cur := gen.NextBatch(64)
	ahead := []*data.Batch{gen.NextBatch(64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StepLookahead(cur, ahead)
		cur, ahead[0] = ahead[0], cur
	}
}

// HotlineTrainStepDepth4 is the train step through the depth-4 lookahead
// pipeline (three mini-batches staged ahead every step; steady state:
// 0 allocs/op at Parallelism(1)).
func HotlineTrainStepDepth4(b *testing.B) {
	cfg := benchTrainCfg()
	tr := train.NewHotline(model.New(cfg, 1), 0.1)
	tr.Depth = 4
	gen := data.NewGenerator(cfg)
	const window = 8
	batches := make([]*data.Batch, window)
	for i := range batches {
		batches[i] = gen.NextBatch(64)
	}
	look := make([]*data.Batch, tr.Depth-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range look {
			look[j] = batches[(i+1+j)%window]
		}
		tr.StepLookahead(batches[i%window], look)
	}
}

// DenseLinearRM2 measures Forward plus Backward through the RM2 paper MLPs
// (bottom 13-512-256-64-16, top 367-512-256-1, ReLU between layers) at
// batch 128 on ReLU-sparse inputs: the GEMM kernels every nn.Linear runs
// each step (steady state: 0 allocs/op at Parallelism(1)).
func DenseLinearRM2(b *testing.B) {
	const batch = 128
	cfg := data.CriteoKaggle()
	rng := tensor.NewRNG(1)
	inter := nn.NewDotInteraction(cfg.EmbedDim, cfg.NumTables)
	mlps := []*nn.MLP{
		nn.NewMLP(cfg.BotMLP, true, rng),
		nn.NewMLP(append([]int{inter.OutWidth()}, cfg.TopMLP...), false, rng),
	}
	xs := make([]*tensor.Matrix, len(mlps))
	grads := make([]*tensor.Matrix, len(mlps))
	for i, m := range mlps {
		xs[i] = tensor.New(batch, m.Sizes[0])
		tensor.NormalInit(xs[i], 1, rng)
		for j, v := range xs[i].Data {
			xs[i].Data[j] = max(v, 0) // ReLU: about half the inputs are zero
		}
		grads[i] = tensor.New(batch, m.Sizes[len(m.Sizes)-1])
		tensor.NormalInit(grads[i], 1, rng)
		m.Forward(xs[i]) // warm: size every layer's scratch
		m.Backward(grads[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range mlps {
			m.Forward(xs[j])
			m.Backward(grads[j])
		}
	}
}

// ShardedPrefetchWindow measures one asynchronous gather window end to end
// (plan → double-buffered queues → staging → consume → ring release) on a
// 4-node service.
func ShardedPrefetchWindow(b *testing.B) {
	const dim, rows = 16, 256
	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 8 * int64(dim) * 4, RowBytes: int64(dim) * 4,
	}, nil)
	svc.EnableAsyncGather()
	sb := embedding.ShardBag(embedding.NewTable(rows, dim, tensor.NewRNG(3)), svc, 0)
	idx := make([][]int32, 32)
	for i := range idx {
		idx[i] = []int32{int32(i * 7 % rows), int32(i * 13 % rows), int32(i % 7)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Prefetch(idx)
		sb.Forward(idx)
	}
}

// quantGather measures the fused dequantize-gather path end to end on a
// 4-node precision-tiered service: every remote row is warm-tier resident at
// width w, so each window stages entirely through the fused kernel (fetch +
// in-place round trip into the pooled staging slots; steady state:
// 0 allocs/op at Parallelism(1)). The same index set as
// ShardedPrefetchWindow, so the two targets diff cleanly: the delta between
// them is the quantization kernel itself.
func quantGather(b *testing.B, q shard.QuantMode) {
	const dim, rows = 16, 256
	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: int64(rows) * int64(dim) * 4, RowBytes: int64(dim) * 4,
		Quant: q,
	}, nil)
	svc.EnableAsyncGather()
	sb := embedding.ShardBag(embedding.NewTable(rows, dim, tensor.NewRNG(3)), svc, 0)
	idx := make([][]int32, 32)
	for i := range idx {
		idx[i] = []int32{int32(i * 7 % rows), int32(i * 13 % rows), int32(i % 7)}
	}
	sb.Prefetch(idx) // warm: admit every remote row at the narrow width
	sb.Forward(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Prefetch(idx)
		sb.Forward(idx)
	}
}

// QuantGatherINT8 is the fused dequantize-gather window with int8 warm rows.
func QuantGatherINT8(b *testing.B) { quantGather(b, shard.QuantINT8) }

// QuantGatherFP16 is the fused dequantize-gather window with fp16 warm rows.
func QuantGatherFP16(b *testing.B) { quantGather(b, shard.QuantFP16) }

// benchServeServer builds the warmed 4-node serving stack the serve
// benchmarks and the BENCH load section share.
func benchServeServer(replicas int) *serve.Server {
	cfg := benchTrainCfg()
	m := model.New(cfg, 1)
	m.ShardEmbeddings(shard.New(shard.Config{
		Nodes: 4, CacheBytes: 1 << 20, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil))
	return serve.NewServer(m, replicas)
}

// ServePredict measures one online prediction (batch 32) through the
// read-only serving path on a warmed 4-node sharded server (steady state:
// 0 allocs/op at Parallelism(1)).
func ServePredict(b *testing.B) {
	srv := benchServeServer(1)
	cfg := benchTrainCfg()
	batch := data.NewGenerator(cfg).NextBatch(32)
	probs := srv.Predict(batch) // warm caches and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probs = srv.PredictInto(probs, batch)
	}
}

// ServeLoadResult is the BENCH json's load-harness section: one open-loop
// run of the request player against the warmed serving stack, recording
// achieved throughput and exact tail percentiles. Latency targets live in
// the checked-in bench/ snapshots alongside the ns/op trajectory.
type ServeLoadResult struct {
	QPS        float64 `json:"qps"`
	Requests   int     `json:"requests"`
	Players    int     `json:"players"`
	Throughput float64 `json:"throughput_rps"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	P999NS     int64   `json:"p999_ns"`
}

// ServeLoad replays a drifting request corpus at a modest fixed rate and
// condenses the report (Run attaches it to the BENCH json).
func ServeLoad() ServeLoadResult {
	srv := benchServeServer(2)
	corpus := serve.BuildCorpus(benchTrainCfg(), 2, 32, 32)
	rep := serve.RunLoad(srv, corpus, serve.LoadConfig{QPS: 500, Requests: 256, Players: 2})
	return ServeLoadResult{
		QPS: rep.QPS, Requests: rep.Requests, Players: rep.Players,
		Throughput: rep.Throughput,
		P50NS:      rep.Latency.P50.Nanoseconds(),
		P99NS:      rep.Latency.P99.Nanoseconds(),
		P999NS:     rep.Latency.P999.Nanoseconds(),
	}
}

// RecoveryResult is the BENCH json's fault-recovery section: one
// fixed-schedule chaos run per recovery policy (2 nodes, unix sockets, peer
// killed at window 1), recording the measured recovery latency and payload
// costs so the trajectory of recovery overhead is tracked across PRs like
// ns/op. MaxStateDiff must stay 0 — a recovered run that is not
// bit-identical is a correctness bug, not a slow run.
type RecoveryResult struct {
	Policy         string  `json:"policy"`
	Schedule       string  `json:"schedule"`
	RecoveryWallNS int64   `json:"recovery_wall_ns"`
	Redials        int     `json:"redials"`
	Adoptions      int     `json:"adoptions"`
	MigratedBytes  int64   `json:"migrated_bytes"`
	ResyncBytes    int64   `json:"resync_bytes"`
	RefetchedRows  int64   `json:"refetched_rows"`
	StaleServeRows int64   `json:"stale_serve_rows"`
	MaxStateDiff   float64 `json:"max_state_diff"`
	Error          string  `json:"error,omitempty"`
}

// ChaosRecovery runs the fixed chaos schedule under both recovery policies
// (Run attaches the results to the BENCH json).
func ChaosRecovery() []RecoveryResult {
	out := make([]RecoveryResult, 0, 2)
	for _, policy := range []shard.RecoveryPolicy{shard.RecoverRedial, shard.RecoverAdopt} {
		m, err := pipeline.MeasureChaos(data.CriteoKaggle(), 2, 0, "unix",
			8, 256, policy, 10*time.Millisecond)
		r := RecoveryResult{
			Policy:         policy.String(),
			Schedule:       m.Schedule,
			RecoveryWallNS: m.RecoveryWall.Nanoseconds(),
			Redials:        m.Redials,
			Adoptions:      m.Adoptions,
			MigratedBytes:  m.MigratedBytes,
			ResyncBytes:    m.ResyncBytes,
			RefetchedRows:  m.RefetchedRows,
			StaleServeRows: m.StaleServeRows,
			MaxStateDiff:   m.MaxStateDiff,
		}
		if err != nil {
			r.Error = err.Error()
		}
		out = append(out, r)
	}
	return out
}

// PipelineIteration measures the full analytic timing model for every
// pipeline on the 4-GPU Kaggle workload.
func PipelineIteration(b *testing.B) {
	w := pipeline.NewWorkload(data.CriteoKaggle(), 4096, cost.PaperSystem(4))
	pipes := pipeline.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pipes {
			p.Iteration(w)
		}
	}
}

// ZipfSample measures the workload generator's inner sampler.
func ZipfSample(b *testing.B) {
	z := data.NewZipf(1_000_000, 1.1)
	rng := tensor.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample(rng)
	}
}

// Result is one target's measured outcome.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the machine-readable BENCH_<date>.json payload.
type Report struct {
	Date        string `json:"date"`
	Label       string `json:"label,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	Parallelism int    `json:"parallelism"`
	// PipelineDepth records the default prefetch pipeline depth the
	// benchmarks ran under (the depth-named targets override it locally).
	PipelineDepth int      `json:"pipeline_depth"`
	Results       []Result `json:"results"`
	// ServeLoad is the load-harness run (absent in pre-serving snapshots).
	ServeLoad *ServeLoadResult `json:"serve_load,omitempty"`
	// Recovery is the chaos-schedule fault-recovery run, one entry per
	// policy (absent in pre-recovery snapshots).
	Recovery []RecoveryResult `json:"recovery,omitempty"`
}

// Run executes every target under testing.Benchmark and returns the report.
func Run(label string, now time.Time) Report {
	rep := Report{
		Date:          now.Format("2006-01-02"),
		Label:         label,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		PipelineDepth: train.DefaultPipelineDepth(),
	}
	for _, t := range Targets() {
		r := testing.Benchmark(t.Fn)
		rep.Results = append(rep.Results, Result{
			Name:        t.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	load := ServeLoad()
	rep.ServeLoad = &load
	rep.Recovery = ChaosRecovery()
	return rep
}

// JSON renders the report with a trailing newline.
func (r Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
