package main

import (
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// lr is the learning rate every executor in the benchmark trains with.
const lr = 0.1

// Settings every workload shares.
const (
	depth    = 2  // pipeline depth of the Hotline executor
	dayEvery = 64 // batches per drift day of the generated streams

	// Serving: open-loop batch-reqBatch predicts at rps from players
	// goroutines, counted against limit. Training-only workloads serve in
	// probe bursts that take probeShare of the window.
	rps        = 40
	players    = 2
	reqBatch   = 32
	limit      = 50 * time.Millisecond
	probeShare = 0.2
)

// workload is one set of inputs the benchmark runs. Why each exists, which
// layer it loads and which it bypasses are in README.md.
type workload struct {
	name     string
	cfg      func() data.Config
	nodes    int
	cacheDiv int64 // device cache = data.ScaledHotBudget(cfg) / cacheDiv
	socket   bool  // nodes behind real unix sockets instead of in-proc
	batch    int
	// pool is how many distinct training batches the stream holds; the
	// stream loops over them.
	pool int
	// warmup is the untimed step prefix: EAL learning warm-up and cache
	// fill, and the prefix checked bit-identical to a single-node executor.
	warmup int
	// replay is how many batches the traced run replays through the model.
	replay int
	// mixed serves beside training for the whole window.
	mixed bool
}

// kaggleSmall is Criteo Kaggle with the small serving MLPs (13-64-16 / 64-1).
func kaggleSmall() data.Config {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 64, 16}
	cfg.TopMLP = []int{64, 1}
	return cfg
}

// terabyteProbe is Criteo Terabyte with its MLPs shrunk the way the fabric
// probe shrinks them, so the wire carries a visible share of the step.
func terabyteProbe() data.Config {
	cfg := data.CriteoTerabyte()
	cfg.BotMLP = []int{cfg.BotMLP[0], 64, cfg.EmbedDim}
	cfg.TopMLP = []int{64, 1}
	return cfg
}

var workloads = []*workload{
	{
		name: "kaggle-dense", cfg: data.CriteoKaggle, nodes: 4, cacheDiv: 1,
		batch: 128, pool: 256, warmup: 16, replay: 12,
	},
	{
		name: "terabyte-socket", cfg: terabyteProbe, nodes: 2, cacheDiv: 10, socket: true,
		batch: 256, pool: 384, warmup: 12, replay: 24,
	},
	{
		name: "kaggle-serve-mixed", cfg: kaggleSmall, nodes: 4, cacheDiv: 1,
		batch: 256, pool: 384, warmup: 12, replay: 24, mixed: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mix is splitmix64: it spreads the benchmark seed into independent seeds.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// shape returns the dataset config with its generator seeded from seed.
func (w *workload) shape(seed uint64) data.Config {
	cfg := w.cfg()
	cfg.Seed ^= mix(seed)
	return cfg
}

func modelSeed(seed uint64) uint64 { return mix(seed ^ 0x6D6F64656C) }

// requests returns how many predicts one run sends: a multiple of segments
// on the training-only workloads.
func (w *workload) requests(window time.Duration) int {
	if w.mixed {
		return max(int(math.Round(window.Seconds()*rps)), 1)
	}
	return segments * max(int(math.Round(window.Seconds()*probeShare/segments*rps)), 1)
}

// instance is one set-up of a workload: its inputs, the sharded model and
// executor, and the predict server over the same weights.
type instance struct {
	w       *workload
	cfg     data.Config
	batches []*data.Batch
	reqs    []*data.Batch
	genMs   []float64 // wall of each NextBatch call

	svc  *shard.Service
	fab  *shard.LocalFabric
	wire *wireCounter
	tt   *timedTransport
	t    *train.HotlineTrainer
	srv  *serve.Server

	look   []*data.Batch
	losses []float64 // warm-up losses, the bit-identity prefix
	probs  []float32
	warmOK int // warm-up predicts that passed their check
}

// setup builds one instance: inputs, fabric, model, executor and server,
// then runs the warm-up prefix. With tr non-nil the transport is wrapped in
// the timing probe and the socket connections in byte counters.
func setup(w *workload, seed uint64, window time.Duration, tr *tracer) (*instance, error) {
	in := &instance{w: w, cfg: w.shape(seed)}
	gen := data.NewGenerator(in.cfg)
	for i := 0; i < w.pool; i++ {
		if i%dayEvery == 0 {
			gen.SetDay(i / dayEvery)
		}
		start := time.Now()
		in.batches = append(in.batches, gen.NextBatch(w.batch))
		in.genMs = append(in.genMs, ms(time.Since(start)))
	}
	rcfg := in.cfg
	rcfg.Seed ^= 0x5E47E
	rgen := data.NewGenerator(rcfg)
	n := w.requests(window)
	for i := 0; i < n+w.warmup; i++ {
		if i%dayEvery == 0 {
			rgen.SetDay(i / dayEvery)
		}
		in.reqs = append(in.reqs, rgen.NextBatch(reqBatch))
	}

	in.svc = shard.New(shard.Config{
		Nodes:      w.nodes,
		CacheBytes: data.ScaledHotBudget(in.cfg) / w.cacheDiv,
		RowBytes:   int64(in.cfg.EmbedDim) * 4,
	}, nil)
	var tr0 shard.Transport = shard.NewInproc()
	if w.socket {
		var wrap func(int, net.Conn) net.Conn
		if tr != nil {
			in.wire = &wireCounter{perNode: make([]atomic.Int64, w.nodes)}
			wrap = in.wire.wrap
		}
		fab, err := shard.StartLocalFabric(w.nodes, "unix", 0, wrap)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("start fabric: %w", err)
		}
		in.fab = fab
		tr0 = fab.Transport
	}
	if tr != nil {
		in.tt = &timedTransport{Transport: tr0, tr: tr}
		tr0 = in.tt
	}
	in.svc.SetTransport(tr0)
	in.t = train.NewHotlineSharded(model.New(in.cfg, modelSeed(seed)), lr, in.svc)
	in.t.Depth = depth
	in.srv = serve.NewServer(in.t.M, players)
	in.look = make([]*data.Batch, depth-1)

	for k := 0; k < w.warmup; k++ {
		var loss float64
		in.srv.Train(func() { loss = in.step(k) })
		in.losses = append(in.losses, loss)
		if w.mixed {
			// Serving between steps must leave training bit-identical.
			in.probs = in.srv.PredictInto(in.probs, in.reqs[n+k])
			if validProbs(in.probs, reqBatch) {
				in.warmOK++
			}
		}
	}
	return in, nil
}

// step trains on stream position k with the next depth-1 batches as
// lookahead.
func (in *instance) step(k int) float64 {
	return stepOn(in.t, in.batches, in.look, k)
}

func stepOn(t *train.HotlineTrainer, batches, look []*data.Batch, k int) float64 {
	for j := range look {
		look[j] = batches[(k+1+j)%len(batches)]
	}
	return t.StepLookahead(batches[k%len(batches)], look)
}

func (in *instance) close() {
	if in.svc != nil {
		in.svc.Close()
	}
	if in.fab != nil {
		in.fab.Close()
	}
}

// validProbs reports whether a prediction has one finite probability in
// [0, 1] per sample.
func validProbs(p []float32, n int) bool {
	if len(p) != n {
		return false
	}
	for _, v := range p {
		if !(v >= 0 && v <= 1) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
