package accel

import (
	"hotline/internal/data"
	"hotline/internal/sim"
)

// Config bundles the full accelerator configuration (Table IV defaults).
type Config struct {
	EAL     EALConfig
	Engines EngineConfig
	Reducer ReducerConfig
	EDRAM   InputEDRAMConfig
	// SampleRate is the learning-phase mini-batch sampling rate
	// (paper: 5% keeps profiling overhead ≤ 5%).
	SampleRate float64
}

// DefaultConfig returns the paper's accelerator.
func DefaultConfig() Config {
	return Config{
		EAL:        DefaultEALConfig(),
		Engines:    DefaultEngineConfig(),
		Reducer:    DefaultReducerConfig(),
		EDRAM:      DefaultInputEDRAM(),
		SampleRate: 0.05,
	}
}

// Accelerator is the functional + timing model of the Hotline accelerator.
// It owns an EAL and classifies mini-batches into popular / non-popular
// µ-batches, exactly as the Input Classifier + Lookup Engine array do.
type Accelerator struct {
	Cfg Config
	EAL *EAL
	seg *SegregationModel
	// learning statistics
	SampledBatches int64
	TotalBatches   int64

	// classification scratch, reused across Classify calls
	popScratch, nonScratch []int
	memo                   classifyMemo
}

// memoBits sizes the classification memo (2^14 entries ≈ 256 KB).
const memoBits = 14

// classifyMemo is a direct-mapped, epoch-tagged memo of EAL probe results,
// valid within one Classify call (the EAL is read-only during
// classification, and the epoch advances on every call). Zipf-skewed
// batches repeat their head rows constantly, so most probes skip the
// Feistel hash and the 8-way set scan entirely — this models the hardware's
// ability to service repeated identifiers from its port buffers rather than
// re-walking SRAM banks.
type classifyMemo struct {
	keys   []uint64
	epochs []uint32
	vals   []bool
	epoch  uint32
}

// lookup probes the memo; compute is consulted (and memoised) on a miss.
//
//hotline:hotpath
func (m *classifyMemo) lookup(key uint64, compute func() bool) bool {
	if m.keys == nil {
		n := 1 << memoBits
		m.keys = make([]uint64, n)   //hotline:allow hotalloc lazy one-time memo init
		m.epochs = make([]uint32, n) //hotline:allow hotalloc lazy one-time memo init
		m.vals = make([]bool, n)     //hotline:allow hotalloc lazy one-time memo init
	}
	h := (key * 0x9E3779B97F4A7C15) >> (64 - memoBits)
	if m.keys[h] == key && m.epochs[h] == m.epoch {
		return m.vals[h]
	}
	v := compute()
	m.keys[h], m.epochs[h], m.vals[h] = key, m.epoch, v
	return v
}

// nextEpoch invalidates the memo (start of a new Classify call).
//
//hotline:hotpath
func (m *classifyMemo) nextEpoch() {
	m.epoch++
	if m.epoch == 0 && m.keys != nil {
		// uint32 wrap: scrub stale tags so an ancient entry can never alias
		// the restarted epoch counter.
		clear(m.keys)
	}
}

// New builds an accelerator.
func New(cfg Config) *Accelerator {
	return &Accelerator{
		Cfg: cfg,
		EAL: NewEAL(cfg.EAL),
		seg: NewSegregationModel(cfg.Engines, cfg.EAL),
	}
}

// LearnBatch feeds every access of a sampled mini-batch into the EAL
// (learning phase, §IV-1).
//
//hotline:hotpath
func (a *Accelerator) LearnBatch(b *data.Batch) {
	a.SampledBatches++
	for t := range b.Sparse {
		for _, idxs := range b.Sparse[t] {
			for _, ix := range idxs {
				a.EAL.Touch(t, ix)
			}
		}
	}
}

// MaybeLearn samples the batch at the configured rate using a deterministic
// batch counter (every k-th batch where k = 1/SampleRate), mirroring the
// periodic re-calibration the paper describes.
//
//hotline:hotpath
func (a *Accelerator) MaybeLearn(b *data.Batch) bool {
	a.TotalBatches++
	if a.Cfg.SampleRate <= 0 {
		return false
	}
	k := int64(1 / a.Cfg.SampleRate)
	if k < 1 {
		k = 1
	}
	if (a.TotalBatches-1)%k == 0 {
		a.LearnBatch(b)
		return true
	}
	return false
}

// Classification is the result of segregating one mini-batch.
type Classification struct {
	PopularIdx    []int // sample positions whose accesses are all tracked
	NonPopularIdx []int
	// ColdLookups counts accesses that missed the EAL (these rows must be
	// gathered from CPU DRAM for the non-popular µ-batch).
	ColdLookups int64
	// TotalLookups is every sparse access in the batch.
	TotalLookups int64
}

// PopularFraction returns |popular| / batch.
func (c Classification) PopularFraction() float64 {
	n := len(c.PopularIdx) + len(c.NonPopularIdx)
	if n == 0 {
		return 0
	}
	return float64(len(c.PopularIdx)) / float64(n)
}

// Classify runs the acceleration-phase segregation: an input is popular iff
// every one of its embedding indices is tracked by the EAL (§V-C).
//
// The returned index slices are scratch owned by the accelerator, valid
// until the next Classify call; callers that keep a classification across
// batches must copy them (the executor's lookahead stash does).
//
//hotline:hotpath
func (a *Accelerator) Classify(b *data.Batch) Classification {
	cl := Classification{PopularIdx: a.popScratch[:0], NonPopularIdx: a.nonScratch[:0]}
	a.memo.nextEpoch()
	n := b.Size()
	for i := 0; i < n; i++ {
		popular := true
		for t := range b.Sparse {
			for _, ix := range b.Sparse[t][i] {
				cl.TotalLookups++
				key := uint64(t)<<32 | uint64(uint32(ix))
				tracked := a.memo.lookup(key, func() bool { return a.EAL.Contains(t, ix) }) //hotline:allow hotalloc non-escaping predicate; memo.lookup invokes it inline or not at all
				if !tracked {
					popular = false
					cl.ColdLookups++
				}
			}
		}
		if popular {
			cl.PopularIdx = append(cl.PopularIdx, i) //hotline:allow hotalloc classification scratch; converges to the batch size
		} else {
			cl.NonPopularIdx = append(cl.NonPopularIdx, i) //hotline:allow hotalloc classification scratch; converges to the batch size
		}
	}
	a.popScratch, a.nonScratch = cl.PopularIdx, cl.NonPopularIdx
	return cl
}

// SegregationTime returns the accelerator time to classify a mini-batch
// with the given lookup count.
func (a *Accelerator) SegregationTime(totalLookups int64) sim.Duration {
	return a.seg.SegregationTime(totalLookups)
}
