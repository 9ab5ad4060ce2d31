package main

import (
	"time"

	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// benchWorkload is one traffic mix. The rates, burst shapes and
// capacity loads were fixed from a calibration run on a 2-core Xeon (see
// NOTES.md); they live here rather than in BENCHMARK.json, whose keys
// are fixed.
type benchWorkload struct {
	Name string
	// Model prefixes the per-layer metric names ("graph.layer.<Model>.…").
	Model string
	build func(sched.Features) (*graph.Network, error)
	// Offline workloads call graph.Network.Infer directly, no server.
	Offline  bool
	Batching bool
	// Burst selects on/off arrivals: each BurstPeriod starts with a
	// window of BurstDuty·BurstPeriod that carries the period's
	// requests. Otherwise arrivals are Poisson.
	Burst       bool
	BurstPeriod time.Duration
	BurstDuty   float64
	// Nominal is the open-loop rate, in req/s, latency_p50_ms and
	// latency_p95_ms are read at.
	Nominal float64
	// LimitMs is the tail-latency limit a phase is checked against.
	LimitMs float64
	// CapClients closed-loop clients measure sustained_rps, each
	// sending its next request as soon as the last one is answered.
	// CapRate, in req/s, sizes the capacity phase: it sends a fixed
	// CapRate·(its share of --seconds) requests, so the count of
	// attempted requests does not depend on the host's speed.
	CapClients int
	CapRate    float64
	// Inputs is how many distinct seeded inputs the requests draw from.
	Inputs int
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median. A served end-to-end run spreads them over its rounds.
	SetupReps int
}

// Weight seeds are fixed: the model is the system under test, and only
// the inputs and arrivals follow --seed.
const (
	seedTinyDup = 11
	seedTinyVGG = 12
	seedVGG16   = 13
)

var workloads = []*benchWorkload{
	{
		Name:  "steady-tinydup",
		Model: "tinyvgg",
		build: func(f sched.Features) (*graph.Network, error) {
			return graph.TinyVGG(f, dupWeights{graph.RandomWeights{Seed: seedTinyDup}})
		},
		Nominal:    100,
		LimitMs:    50,
		CapClients: 2,
		CapRate:    400,
		Inputs:     64,
		SetupReps:  61,
	},
	{
		Name:  "burst-tinyvgg",
		Model: "tinyvgg",
		build: func(f sched.Features) (*graph.Network, error) {
			return graph.TinyVGG(f, graph.RandomWeights{Seed: seedTinyVGG})
		},
		Batching:    true,
		Burst:       true,
		BurstPeriod: 200 * time.Millisecond,
		BurstDuty:   0.01,
		Nominal:     40,
		LimitMs:     120,
		CapClients:  16,
		CapRate:     180,
		Inputs:      64,
		SetupReps:   61,
	},
	{
		Name:  "offline-vgg16",
		Model: "vgg16",
		build: func(f sched.Features) (*graph.Network, error) {
			return graph.VGG16(f, graph.RandomWeights{Seed: seedVGG16})
		},
		Offline:   true,
		Inputs:    4,
		SetupReps: 5,
	},
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// dupWeights repeats one of four base filter patterns across the output
// channels of every conv bank — the generator BENCH_compress.json's
// HighDup net uses — so the load-time planner compresses every conv.
type dupWeights struct {
	graph.RandomWeights
}

func (d dupWeights) ConvFilter(name string, k, kh, kw, c int) (*tensor.Filter, error) {
	f, err := d.RandomWeights.ConvFilter(name, k, kh, kw, c)
	if err == nil {
		per := kh * kw * c
		for i := 4; i < k; i++ {
			copy(f.Data[i*per:(i+1)*per], f.Data[(i%4)*per:(i%4+1)*per])
		}
	}
	return f, err
}
