package serve

import (
	"sync"
	"sync/atomic"

	"hotline/internal/data"
	"hotline/internal/model"
)

// Server serves click predictions from a model while allowing interleaved
// training on the same weights.
//
// Replicas are weight-sharing shadows (model.NewShadow): the parameters
// live once, each replica owns private forward scratch, so replicas score
// requests concurrently. A read/write lock orders serving against
// training — Predict holds the read side (any number of concurrent
// predicts), Train the write side (exclusive) — which keeps mixed
// train+serve runs race-clean without ever blocking predicts on each
// other. Serving cannot perturb training: replica lookups take the bags'
// ServeForward path, which never consumes a prefetch window, never arms
// backward state, and books its traffic into the shard service's serve
// counters. The shared device caches ARE warmed by request traffic — that
// coupling is the serving story, and it changes accounting only, never
// values.
type Server struct {
	mu       sync.RWMutex
	replicas chan *model.Model

	requests atomic.Int64
	samples  atomic.Int64
}

// NewServer builds a server with n predict replicas shadowing m (n <= 0
// defaults to 1). The caller keeps training through its own executor on m;
// wrap each training step in Train so it serialises against predicts.
func NewServer(m *model.Model, n int) *Server {
	if n <= 0 {
		n = 1
	}
	s := &Server{replicas: make(chan *model.Model, n)}
	for i := 0; i < n; i++ {
		s.replicas <- model.NewShadow(m)
	}
	return s
}

// Predict returns click probabilities for one request batch.
func (s *Server) Predict(b *data.Batch) []float32 {
	return s.PredictInto(nil, b)
}

// PredictInto is Predict writing into dst (grown as needed), so a request
// player reusing one buffer allocates nothing in steady state. It blocks
// while a Train step holds the write lock or every replica is busy; that
// wait is real serving latency and the load harness measures it.
func (s *Server) PredictInto(dst []float32, b *data.Batch) []float32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rep := <-s.replicas
	dst = rep.ServePredictInto(dst, b)
	s.replicas <- rep
	s.requests.Add(1)
	s.samples.Add(int64(b.Size()))
	return dst
}

// Train runs one training step — any closure advancing the shared
// weights — under the exclusive lock. In-flight predicts drain first
// (replica passes only read parameters, so they must not overlap a
// mutation), and new predicts wait until the step returns.
func (s *Server) Train(step func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	step()
}

// Served returns how many requests and samples have been predicted.
func (s *Server) Served() (requests, samples int64) {
	return s.requests.Load(), s.samples.Load()
}
