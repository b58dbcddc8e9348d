// Command perfbench is the repository's end-to-end benchmark. One run sets
// up a workload from a seed, trains (and serves) for a timed window, checks
// the outputs, and prints every metric as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around its calls into each layer, replays the layers alone,
// and prints the per-layer metrics instead. Build and run it from the
// repository root with perfbench/run.sh; README.md describes the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/train"
)

// procStart stands in for process start: the first set-up is timed from it.
var procStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their failures; any failure fails the run.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.errs) < 16 {
			t.errs = append(t.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, report, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := json.Marshal(map[string]any{"report": report})
	if err == nil {
		var line []byte
		line, err = json.Marshal(res)
		fmt.Printf("%s\n%s\n", rep, line)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, checks each set-up's warm-up
// prefix against a single-node executor, measures the last one, checks its
// outputs and returns the metrics plus a report of the conditions.
func run(w *workload, seed uint64, window time.Duration, traced bool) (result, map[string]any, error) {
	var tr *tracer
	if traced {
		tr = newTracer(1 << 18)
	}
	var tl tally
	var ref *train.HotlineTrainer
	var refLoss []float64
	var in *instance
	setupS := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = procStart
		}
		// In a traced run the first set-up runs without the probes and the
		// middle ones record spans into a buffer of their own, so the prefix
		// check below also shows tracing leaves training bit-identical. The
		// measured set-up carries the probes but records nothing until the
		// window starts.
		var rtr *tracer
		switch {
		case tr == nil || rep == 0:
		case rep < setupReps-1:
			rtr = newTracer(1 << 16)
			rtr.on.Store(true)
		default:
			rtr = tr
		}
		cur, err := setup(w, seed, window, rtr)
		if err != nil {
			return result{}, nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if ref == nil {
			ref, refLoss = reference(cur, seed)
		}
		checkPrefix(&tl, cur, ref, refLoss, rep)
		if rep < setupReps-1 {
			cur.close()
			runtime.GC()
			continue
		}
		in = cur
	}
	defer in.close()

	// Collect the set-ups' garbage now, so no run's window pays for it.
	runtime.GC()
	before := in.counters()
	served0, _ := in.srv.Served()
	win := measure(in, window, tr)
	after := in.counters()
	served, _ := in.srv.Served()

	for i, l := range win.losses {
		tl.check(!math.IsNaN(l) && !math.IsInf(l, 0), "step %d: non-finite loss %v", i, l)
	}
	for i, r := range win.reqs {
		tl.check(r.ok, "request %d: prediction not a probability per sample", i)
	}
	tl.check(served-served0 == int64(len(win.reqs)), "served %d requests, sent %d", served-served0, len(win.reqs))
	tl.check(in.svc.FabricErr() == nil, "fabric error: %v", in.svc.FabricErr())
	if !tl.check(len(win.steps) > 0, "no training step in the window") {
		return result{Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metric{}}, map[string]any{"errors": tl.errs}, nil
	}

	m := map[string]metric{}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if !traced {
		lat := make([]float64, len(win.reqs))
		within := 0
		for i, r := range win.reqs {
			lat[i] = float64(r.done-r.due) / 1e6
			if r.ok && r.done-r.due <= int64(limit) {
				within++
			}
		}
		sort.Float64s(lat)
		m["train_samples_per_s"] = metric{win.samplesPerS(w.batch), "1/s"}
		m["step_ms_p50"] = metric{quantile(win.stepMs(), 0.5), "ms"}
		m["serve_ms_p50"] = metric{quantile(lat, 0.5), "ms"}
		m["serve_within_limit_frac"] = metric{float64(within) / float64(len(win.reqs)), "frac"}
		m["setup_s"] = metric{median(setupS), "s"}
		m["mem_mb"] = metric{float64(mem.Sys) / (1 << 20), "MB"}
	} else {
		m = layerMetrics(in, tr, win, before, after)
		replay(in, seed, tr, m)
		path := fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", w.name, seed)
		tl.check(tr.write(path) == nil, "write trace %s", path)
		tl.check(tr.dropped() == 0, "trace buffer dropped %d spans", tr.dropped())
	}

	spanCounts := map[string]int{}
	if tr != nil {
		for _, sp := range tr.spans() {
			spanCounts[spanNames[sp.kind]]++
		}
	}
	report := map[string]any{
		"workload": w.name, "seed": seed, "seconds": window.Seconds(), "trace": traced,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "parallelism": par.Workers(),
		"depth": depth, "batch": w.batch, "nodes": w.nodes, "fabric": in.svc.Transport().Name(),
		"steps": len(win.steps), "segments": segments, "serve_samples": len(win.reqs),
		"spans": spanCounts, "setup_s": setupS, "mem_sys_bytes": mem.Sys, "errors": tl.errs,
	}
	return result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, report, nil
}

// reference trains a single-node executor from the same initial state on
// the same warm-up prefix.
func reference(in *instance, seed uint64) (*train.HotlineTrainer, []float64) {
	ref := train.NewHotline(model.New(in.cfg, modelSeed(seed)), lr)
	ref.Depth = depth
	look := make([]*data.Batch, depth-1)
	losses := make([]float64, in.w.warmup)
	for k := range losses {
		losses[k] = stepOn(ref, in.batches, look, k)
	}
	return ref, losses
}

// checkPrefix checks one set-up's warm-up against the single-node
// reference: bit-identical losses and state, and predictions equal to the
// reference model's on the same weights.
func checkPrefix(tl *tally, in *instance, ref *train.HotlineTrainer, refLoss []float64, rep int) {
	for k, l := range in.losses {
		tl.check(math.Float64bits(l) == math.Float64bits(refLoss[k]),
			"set-up %d step %d: loss %v, single-node %v", rep, k, l, refLoss[k])
	}
	d := model.MaxStateDiff(ref.M, in.t.M)
	tl.check(d == 0, "set-up %d: state differs from single-node by %g", rep, d)
	if in.w.mixed {
		tl.check(in.warmOK == in.w.warmup, "set-up %d: %d of %d warm-up predictions invalid", rep, in.w.warmup-in.warmOK, in.w.warmup)
	}
	for j := 0; j < 4; j++ {
		req := in.reqs[j]
		got, want := in.srv.Predict(req), ref.M.Predict(req)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = math.Float32bits(got[i]) == math.Float32bits(want[i])
		}
		tl.check(same && validProbs(got, len(req.Labels)), "set-up %d: request %d predicted differently from single-node", rep, j)
	}
}
