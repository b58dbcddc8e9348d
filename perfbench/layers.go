package main

import (
	"sort"
	"time"

	"hotline/internal/accel"
	"hotline/internal/model"
	"hotline/internal/nn"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// counters is what the layers' exported counters read at one instant.
type counters struct {
	train, serve shard.Stats
	overlap      shard.OverlapStats
	pop, total   int64 // HotlineTrainer.PopularInputs / TotalInputs
	wire         int64 // bytes over the socket fabric's connections
	calls        callCounts
}

func (in *instance) counters() counters {
	c := counters{
		train: in.svc.Snapshot(), serve: in.svc.ServeSnapshot(), overlap: in.svc.Gatherer().Stats(),
		pop: in.t.PopularInputs, total: in.t.TotalInputs, calls: in.tt.calls(),
	}
	if in.wire != nil {
		c.wire = in.wire.total()
	}
	return c
}

// layerMetrics derives the per-layer metrics of a traced window from its
// spans and from the layers' counters before and after it.
func layerMetrics(in *instance, tr *tracer, win window, before, after counters) map[string]metric {
	svc, sv := after.train.Sub(before.train), after.serve.Sub(before.serve)
	a, b := before.overlap, after.overlap
	ov := shard.OverlapStats{
		Windows: b.Windows - a.Windows, SyncWindows: b.SyncWindows - a.SyncWindows,
		RepairRows: b.RepairRows - a.RepairRows, GatherBusy: b.GatherBusy - a.GatherBusy,
		Exposed: b.Exposed - a.Exposed, SyncGather: b.SyncGather - a.SyncGather,
	}
	steps := float64(len(win.steps))
	perStep := func(v int64) float64 { return float64(v) / steps }
	msPerStep := func(d time.Duration) float64 { return ms(d) / steps }
	m := map[string]metric{
		"accel.popular_frac": {ratio(float64(after.pop-before.pop), float64(after.total-before.total)), "frac"},

		"shard.exposed_gather_ms_per_step": {msPerStep(ov.ExposedGather()), "ms"},
		"shard.sync_windows_per_step":      {perStep(ov.SyncWindows), "count"},
		"shard.prefetch_windows_per_step":  {perStep(ov.Windows), "count"},
		"shard.gather_busy_ms_per_step":    {msPerStep(ov.GatherBusy), "ms"},
		"shard.repair_rows_per_step":       {perStep(ov.RepairRows), "count"},
		"shard.cache_hit_rate":             {svc.HitRate(), "frac"},
		"shard.local_frac":                 {svc.LocalFrac(), "frac"},
		"shard.evictions_per_step":         {perStep(svc.Evictions), "count"},
		"shard.fill_bytes_per_step":        {perStep(svc.FillBytes), "B"},
		"shard.gather_rows_per_step":       {perStep(svc.GatherRows), "count"},
		"shard.gather_bytes_per_step":      {perStep(svc.GatherBytes), "B"},
		"shard.scatter_bytes_per_step":     {perStep(svc.ScatterBytes), "B"},
		"shard.lookups_per_step":           {perStep(svc.Lookups), "count"},
		"shard.gather_wall_ms_per_step":    {msPerStep(svc.GatherWall), "ms"},
		"shard.scatter_wall_ms_per_step":   {msPerStep(svc.ScatterWall), "ms"},
		"transport.fetch_calls_per_step":   {perStep(after.calls.fetch - before.calls.fetch), "count"},
		"transport.push_calls_per_step":    {perStep(after.calls.push - before.calls.push), "count"},
		"transport.wire_bytes_per_step":    {perStep(after.wire - before.wire), "B"},
		"serve.cache_hit_rate":             {sv.HitRate(), "frac"},
		"serve.gather_rows_per_request":    {ratio(float64(sv.GatherRows), float64(len(win.reqs))), "count"},
		"data.next_batch_ms":               {median(in.genMs), "ms"},
	}

	// Transport spans, merged, against the traced steps they overlap.
	var fetchUs, pushUs []float64
	var iv []interval
	for _, s := range tr.spans() {
		switch s.kind {
		case spanFetch:
			fetchUs = append(fetchUs, float64(s.end-s.start)/1e3)
		case spanPush:
			pushUs = append(pushUs, float64(s.end-s.start)/1e3)
		default:
			continue
		}
		iv = append(iv, interval{s.start, s.end})
	}
	u := union(iv)
	var on, off, self []float64
	var onNs, coverNs int64
	for i, st := range win.steps {
		d := st.hi - st.lo
		if !win.stepOn[i] {
			off = append(off, float64(d)/1e6)
			continue
		}
		c := covered(u, st.lo, st.hi)
		on = append(on, float64(d)/1e6)
		self = append(self, float64(d-c)/1e6)
		onNs += d
		coverNs += c
	}
	sort.Float64s(fetchUs)
	sort.Float64s(pushUs)
	m["transport.fetch_us_p50"] = metric{quantile(fetchUs, 0.5), "us"}
	m["transport.fetch_us_p99"] = metric{quantile(fetchUs, 0.99), "us"}
	m["transport.push_us_p50"] = metric{quantile(pushUs, 0.5), "us"}
	m["transport.push_us_p99"] = metric{quantile(pushUs, 0.99), "us"}
	m["train.step_ms_p90"] = metric{quantile(win.stepMs(), 0.9), "ms"}
	m["train.step_self_ms"] = metric{median(self), "ms"}
	m["trace.overhead_frac"] = metric{ratio(median(on)-median(off), median(off)), "frac"}
	// transport_cover_frac is the share of traced step time some transport
	// call overlaps; fabric_cover_frac adds the exposed gather wait on top,
	// so it bounds the union of the two from above.
	exposedNs := float64(ov.ExposedGather()) / steps * float64(len(on))
	m["trace.transport_cover_frac"] = metric{ratio(float64(coverNs), float64(onNs)), "frac"}
	m["trace.fabric_cover_frac"] = metric{ratio(float64(coverNs)+exposedNs, float64(onNs)), "frac"}

	// Serving: the latency tail, call time, how late the generator sent, and
	// the part of each call spent behind a training step's exclusive hold.
	holds := union(append([]interval(nil), win.steps...))
	var lat, call, late, wait []float64
	for _, r := range win.reqs {
		lat = append(lat, float64(r.done-r.due)/1e6)
		call = append(call, float64(r.done-r.sent)/1e6)
		late = append(late, float64(r.sent-r.due)/1e6)
		wait = append(wait, float64(covered(holds, r.sent, r.done))/1e6)
	}
	sort.Float64s(lat)
	sort.Float64s(call)
	sort.Float64s(late)
	sort.Float64s(wait)
	m["serve.latency_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
	m["serve.latency_ms_p99"] = metric{quantile(lat, 0.99), "ms"}
	m["serve.call_ms_p50"] = metric{quantile(call, 0.5), "ms"}
	m["serve.call_ms_p99"] = metric{quantile(call, 0.99), "ms"}
	m["serve.gen_late_ms_p99"] = metric{quantile(late, 0.99), "ms"}
	m["serve.train_lock_wait_ms_p50"] = metric{quantile(wait, 0.5), "ms"}
	return m
}

// replay feeds the workload's batch stream to a separate accelerator and to
// an unsharded model, timing each call, and adds the accel.* and model.*
// metrics.
func replay(in *instance, seed uint64, tr *tracer, m map[string]metric) {
	tr.on.Store(true)
	defer tr.on.Store(false)
	timed := func(kind int32, id int, f func()) float64 {
		s := tr.now()
		f()
		e := tr.now()
		tr.add(span{kind: kind, parent: -1, id: int64(id), start: s, end: e})
		return float64(e - s)
	}

	// Accelerator: the executor's warm-up (LearnBatch until LearnSamples
	// inputs), then periodic re-sampling; learn_us averages the steady part.
	acc := accel.New(accel.DefaultConfig())
	seen := 0
	var learnNs, classify []float64
	for i, b := range in.batches {
		if seen < in.t.LearnSamples {
			timed(spanLearn, i, func() { acc.LearnBatch(b) })
			seen += b.Size()
		} else {
			learnNs = append(learnNs, timed(spanLearn, i, func() { acc.MaybeLearn(b) }))
			classify = append(classify, timed(spanClassify, i, func() { acc.Classify(b) })/1e3)
		}
	}
	var sum float64
	for _, v := range learnNs {
		sum += v
	}
	m["accel.learn_us"] = metric{ratio(sum, float64(len(learnNs))) / 1e3, "us"}
	m["accel.classify_us"] = metric{median(classify), "us"}

	// Dense model: one unsharded model stepping batch by batch.
	md := model.New(in.cfg, modelSeed(seed))
	sgd := nn.NewSGD(md.DenseParams(), lr)
	var grad tensor.Matrix
	var fwd, bwd, upd []float64
	for i := 0; i < in.w.replay; i++ {
		b := in.batches[i]
		md.ZeroAll()
		var logits *tensor.Matrix
		fwd = append(fwd, timed(spanForward, i, func() { logits = md.Forward(b) })/1e6)
		bwd = append(bwd, timed(spanBackward, i, func() {
			_, g := nn.BCEWithLogitsInto(&grad, logits, b.Labels, nn.ReduceMean)
			md.Backward(g, 1)
		})/1e6)
		upd = append(upd, timed(spanUpdate, i, func() {
			sgd.Step()
			md.ApplySparse(lr)
		})/1e6)
	}
	f, b, up := median(fwd), median(bwd), median(upd)
	m["model.forward_ms"] = metric{f, "ms"}
	m["model.backward_ms"] = metric{b, "ms"}
	m["model.update_ms"] = metric{up, "ms"}
	m["model.gflop_per_s"] = metric{3 * forwardFlops(md) * float64(in.w.batch) / ((f + b) / 1e3) / 1e9, "GFLOP/s"}
}

// forwardFlops is one sample's forward multiply-adds (x2) in the MLPs and
// the dot interaction; backward is counted as twice the forward.
func forwardFlops(md *model.Model) float64 {
	cfg := md.Cfg
	var f float64
	mlp := func(sizes []int) {
		for i := 1; i < len(sizes); i++ {
			f += 2 * float64(sizes[i-1]*sizes[i])
		}
	}
	mlp(cfg.BotMLP)
	mlp(append([]int{md.Inter.OutWidth()}, cfg.TopMLP...))
	n := float64(cfg.NumTables + 1)
	f += 2 * n * (n - 1) / 2 * float64(cfg.EmbedDim)
	return f
}

// ratio is a/b, or 0 when b is (a window too short to have both halves).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
