package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceBlock is how many consecutive steps share one tracing state: a traced
// run records spans on every other block and compares the two halves.
const traceBlock = 4

// segments is how many parts the window of a training-only workload is cut
// into; a serve-only probe burst follows each part, so the probe samples the
// whole window like the training steps do.
const segments = 8

// reqResult is one predict; times are nanoseconds on the window's clock.
type reqResult struct {
	due, sent, done int64
	ok              bool
}

// window is what one timed window measured.
type window struct {
	steps  []interval // wall interval of every timed StepLookahead
	seg    []int      // segment of every step; training pauses between them
	stepOn []bool     // step recorded with spans on
	losses []float64
	reqs   []reqResult
}

// measure runs the timed window on the measured instance. Training steps
// run closed-loop through Server.Train; predicts are open-loop, either
// beside training (mixed workloads) or in serve-only bursts between
// training segments.
// With tr non-nil spans are recorded on every other block of steps.
func measure(in *instance, length time.Duration, tr *tracer) window {
	w := in.w
	origin := time.Now()
	if tr != nil {
		origin = tr.origin
	}
	clock := func() int64 { return int64(time.Since(origin)) }
	win := window{reqs: make([]reqResult, w.requests(length))}

	k := w.warmup // stream position
	train := func(seg int, done func() bool) {
		for ; !done(); k++ {
			on := tr != nil && (len(win.steps)/traceBlock)%2 == 0
			if tr != nil {
				tr.on.Store(on)
			}
			var loss float64
			var iv interval
			if !on {
				in.srv.Train(func() {
					iv.lo = clock()
					loss = in.step(k)
					iv.hi = clock()
				})
			} else {
				hold := tr.reserve()
				t0 := tr.now()
				in.srv.Train(func() {
					idx := tr.reserve()
					tr.curStep.Store(int64(idx) + 1)
					iv.lo = clock()
					loss = in.step(k)
					iv.hi = clock()
					tr.curStep.Store(0)
					tr.set(idx, span{kind: spanStep, parent: hold, id: int64(k), start: iv.lo, end: iv.hi})
				})
				tr.set(hold, span{kind: spanTrain, parent: -1, id: int64(k), start: t0, end: tr.now()})
			}
			win.steps = append(win.steps, iv)
			win.seg = append(win.seg, seg)
			win.stepOn = append(win.stepOn, on)
			win.losses = append(win.losses, loss)
		}
	}

	if w.mixed {
		var stop atomic.Bool
		trained := make(chan struct{})
		go func() {
			defer close(trained)
			train(0, stop.Load)
		}()
		play(in, win.reqs, 0, clock, tr)
		stop.Store(true)
		<-trained
	} else {
		per := len(win.reqs) / segments
		for c := 0; c < segments; c++ {
			deadline := time.Now().Add(time.Duration(float64(length) * (1 - probeShare) / segments))
			train(c, func() bool { return !time.Now().Before(deadline) })
			if tr != nil {
				tr.on.Store(true)
			}
			play(in, win.reqs[c*per:(c+1)*per], c*per, clock, tr)
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	return win
}

// samplesPerS is training throughput over the time spent training; the
// probe bursts between segments do not count.
func (win window) samplesPerS(batch int) float64 {
	var wall int64
	for lo := 0; lo < len(win.steps); {
		hi := lo
		for hi < len(win.steps) && win.seg[hi] == win.seg[lo] {
			hi++
		}
		wall += win.steps[hi-1].hi - win.steps[lo].lo
		lo = hi
	}
	return float64(len(win.steps)*batch) / (float64(wall) / 1e9)
}

// stepMs returns the step times in ascending milliseconds.
func (win window) stepMs() []float64 {
	ns := make([]int64, len(win.steps))
	for i, iv := range win.steps {
		ns[i] = iv.hi - iv.lo
	}
	return sortedMs(ns)
}

// play sends predicts open-loop: out[i] is request first+i, due i/rps after
// the first whatever happened to earlier ones, and its latency counts from
// then. Players take due slots from a shared cursor.
func play(in *instance, out []reqResult, first int, clock func() int64, tr *tracer) {
	interval := float64(time.Second) / rps
	base := clock()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var probs []float32
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(out) {
					return
				}
				due := base + int64(float64(i)*interval)
				if d := due - clock(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				on := tr != nil && tr.on.Load()
				sent := clock()
				probs = in.srv.PredictInto(probs, in.reqs[first+i])
				done := clock()
				if on {
					tr.add(span{kind: spanPredict, parent: -1, id: int64(first + i), start: sent, end: done})
				}
				out[i] = reqResult{due: due, sent: sent, done: done, ok: validProbs(probs, reqBatch)}
			}
		}()
	}
	wg.Wait()
}

// quantile is the nearest-rank q-quantile of ascending values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(r, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sortedMs converts nanosecond durations to ascending milliseconds.
func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
