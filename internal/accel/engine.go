package accel

import (
	"hotline/internal/sim"
	"hotline/internal/tensor"
)

// EngineConfig sizes the parallel lookup-engine array (paper §V-C,
// Table IV: 64 engines at 350 MHz, fed from a 512-entry request queue).
type EngineConfig struct {
	Engines   int
	QueueSize int
	FreqHz    float64
}

// DefaultEngineConfig is the paper's Table IV configuration.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{Engines: 64, QueueSize: 512, FreqHz: 350e6}
}

// CycleTime returns one accelerator clock period.
func (c EngineConfig) CycleTime() sim.Duration {
	return sim.Duration(1e9 / c.FreqHz)
}

// ParallelRequestsPerIteration estimates how many queued EAL requests issue
// per iteration for a queue of m requests over banks banks (Figure 16's
// design-space exploration): the scheduler scans the queue and issues at
// most one request per bank per iteration, capped by the engine count.
// Requests target banks uniformly thanks to the Feistel randomizer; the
// estimate Monte-Carlo samples that process with a deterministic seed.
func ParallelRequestsPerIteration(queue, banks, engines int, trials int) float64 {
	if queue < 1 || banks < 1 {
		return 0
	}
	rng := tensor.NewRNG(uint64(queue)<<32 ^ uint64(banks)<<8 ^ 0xF16)
	var total float64
	for t := 0; t < trials; t++ {
		seen := make(map[int]struct{}, banks)
		for i := 0; i < queue; i++ {
			seen[rng.Intn(banks)] = struct{}{}
		}
		issued := len(seen)
		if issued > engines {
			issued = engines
		}
		total += float64(issued)
	}
	return total / float64(trials)
}

// SegregationModel converts mini-batch classification work into accelerator
// time. throughput is lookups retired per cycle (bounded by both the engine
// count and the bank-parallelism of the EAL).
type SegregationModel struct {
	Eng EngineConfig
	EAL EALConfig
	// perLookupCycles is the pipeline depth cost amortised to 1 per lookup.
	throughput float64
}

// NewSegregationModel derives the sustained lookup throughput from the
// engine and EAL configurations.
func NewSegregationModel(eng EngineConfig, eal EALConfig) *SegregationModel {
	par := ParallelRequestsPerIteration(eng.QueueSize, eal.Banks, eng.Engines, 64)
	if par < 1 {
		par = 1
	}
	return &SegregationModel{Eng: eng, EAL: eal, throughput: par}
}

// SegregationTime returns the time to classify a mini-batch with the given
// total lookup count (batch × average lookups per input) and assemble the
// two µ-batches. Constants: 1 cycle per issued request plus a fixed
// pipeline ramp of ~200 cycles per mini-batch.
func (m *SegregationModel) SegregationTime(totalLookups int64) sim.Duration {
	cycles := float64(totalLookups)/m.throughput + 200
	return sim.Duration(cycles * float64(m.Eng.CycleTime()))
}

// ReducerConfig sizes the reducer ALU array (Table IV: 16 ALUs).
type ReducerConfig struct {
	ALUs   int
	FreqHz float64
}

// DefaultReducerConfig is the paper's Table IV configuration.
func DefaultReducerConfig() ReducerConfig { return ReducerConfig{ALUs: 16, FreqHz: 350e6} }

// ReduceTime models pooling nRows embedding rows of dim floats into bag
// sums: one float add per element, ALUs elements per cycle.
func (r ReducerConfig) ReduceTime(nRows int64, dim int) sim.Duration {
	cycles := float64(nRows*int64(dim)) / float64(r.ALUs)
	return sim.Duration(cycles * 1e9 / r.FreqHz)
}

// InputEDRAMConfig models the 2.5 MB input staging buffer that holds the
// non-popular µ-batch (paper §V-A: up to 16K inputs).
type InputEDRAMConfig struct {
	SizeBytes int64
}

// DefaultInputEDRAM returns the Table IV 2.5 MB buffer.
func DefaultInputEDRAM() InputEDRAMConfig { return InputEDRAMConfig{SizeBytes: 2_500_000} }

// MaxInputs returns how many inputs fit given bytes per staged input
// (sparse indices + per-table offsets).
func (c InputEDRAMConfig) MaxInputs(bytesPerInput int64) int {
	if bytesPerInput <= 0 {
		return 0
	}
	return int(c.SizeBytes / bytesPerInput)
}
