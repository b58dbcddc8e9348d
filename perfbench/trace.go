package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"hotline/internal/shard"
)

// Span kinds: one per benchmark call into a layer.
const (
	spanStep     = iota // HotlineTrainer.StepLookahead
	spanTrain           // serve.Server.Train (lock hold plus the step)
	spanPredict         // serve.Server.PredictInto
	spanFetch           // Transport.Fetch
	spanPush            // Transport.Push
	spanLearn           // replay: Accelerator.LearnBatch / MaybeLearn
	spanClassify        // replay: Accelerator.Classify
	spanForward         // replay: Model.Forward
	spanBackward        // replay: loss gradient + Model.Backward
	spanUpdate          // replay: dense SGD + Model.ApplySparse
	spanKinds
)

var spanNames = [spanKinds]string{
	"train.step", "serve.train", "serve.predict", "transport.fetch", "transport.push",
	"accel.learn", "accel.classify", "model.forward", "model.backward", "model.update",
}

// span is one timed call. Times are nanoseconds since the tracer's origin;
// id is the step or request number (rows for transport calls) and parent
// the index of the enclosing span, or -1.
type span struct {
	kind       int32
	parent     int32
	id         int64
	start, end int64
}

// tracer records spans into a buffer allocated up front. Any goroutine may
// record: each claims its own slot with an atomic add, and the buffer is
// read only after every recording goroutine has been joined. Recording is
// switched on and off per block of steps, so one run measures its own
// overhead.
type tracer struct {
	origin  time.Time
	on      atomic.Bool
	n       atomic.Int64
	buf     []span
	curStep atomic.Int64 // index+1 of the step span in progress, 0 when none
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// reserve claims a slot for a span whose end is not known yet; it returns
// -1 when the buffer is full.
func (t *tracer) reserve() int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		return -1
	}
	return int32(i)
}

func (t *tracer) set(i int32, s span) {
	if i >= 0 {
		t.buf[i] = s
	}
}

func (t *tracer) add(s span) { t.set(t.reserve(), s) }

// spans returns the recorded spans (call after joining the recorders).
func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

func (t *tracer) dropped() int64 {
	if d := t.n.Load() - int64(len(t.buf)); d > 0 {
		return d
	}
	return 0
}

// parent is the step span in progress, or -1.
func (t *tracer) parent() int32 { return int32(t.curStep.Load() - 1) }

// write saves the spans as JSON lines: [kind, id, parent, start_ns, end_ns].
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans() {
		line, _ := json.Marshal([]any{spanNames[s.kind], s.id, s.parent, s.start, s.end})
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport times every Fetch and Push of the transport it wraps. It
// is not a *shard.ResilientTransport, so the service treats it like the
// plain transport underneath.
type timedTransport struct {
	shard.Transport
	tr              *tracer
	fetches, pushes atomic.Int64
}

// callCounts is how many Fetch and Push calls a timedTransport has seen.
type callCounts struct{ fetch, push int64 }

func (t *timedTransport) calls() callCounts {
	if t == nil {
		return callCounts{}
	}
	return callCounts{t.fetches.Load(), t.pushes.Load()}
}

func (t *timedTransport) Fetch(table, owner int, rows []int32, st *shard.Staging, local shard.FetchFunc) error {
	t.fetches.Add(1)
	if !t.tr.on.Load() {
		return t.Transport.Fetch(table, owner, rows, st, local)
	}
	parent, start := t.tr.parent(), t.tr.now()
	err := t.Transport.Fetch(table, owner, rows, st, local)
	t.tr.add(span{kind: spanFetch, parent: parent, id: int64(len(rows)), start: start, end: t.tr.now()})
	return err
}

func (t *timedTransport) Push(table, owner int, rows []int32, src shard.RowAt) error {
	t.pushes.Add(1)
	if !t.tr.on.Load() {
		return t.Transport.Push(table, owner, rows, src)
	}
	parent, start := t.tr.parent(), t.tr.now()
	err := t.Transport.Push(table, owner, rows, src)
	t.tr.add(span{kind: spanPush, parent: parent, id: int64(len(rows)), start: start, end: t.tr.now()})
	return err
}

// countConn counts the bytes one fabric connection moves in both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// wireCounter is the StartLocalFabric wrap hook: one byte counter per node
// connection.
type wireCounter struct{ perNode []atomic.Int64 }

func (w *wireCounter) wrap(node int, c net.Conn) net.Conn {
	return countConn{Conn: c, n: &w.perNode[node]}
}

func (w *wireCounter) total() int64 {
	var n int64
	for i := range w.perNode {
		n += w.perNode[i].Load()
	}
	return n
}

// interval is a half-open time range in tracer nanoseconds.
type interval struct{ lo, hi int64 }

// union merges overlapping intervals (sorting them in place).
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:0]
	for _, v := range iv {
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			if v.hi > out[n-1].hi {
				out[n-1].hi = v.hi
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// covered returns how much of [lo, hi) the sorted disjoint intervals cover.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var n int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		n += min(u[i].hi, hi) - max(u[i].lo, lo)
	}
	return n
}
