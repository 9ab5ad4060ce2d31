package main

import (
	"encoding/json"
	"time"

	"bitflow/internal/workload"
)

// The shared host slows every memory access of the process, its private
// caches included, in spells of one to several seconds, while
// arithmetic runs at full speed (see NOTES.md, "Host modes"). No
// averaging inside a run removes that: a run's timings follow how much
// of it the host spent slow. So each phase also times a fixed piece of
// work that belongs to the benchmark, and the gated timings are read at
// a reference speed of that work.
//
// The work is decoding a fixed request body, 3072 seeded floats as in
// a TinyVGG request, with encoding/json into a fresh value. Of the
// probes tried (SHA-256 of 4 KiB, streaming reads of 64 KiB to 64 MiB,
// JSON decodes of a full and a 128-float body, a scheduler round trip),
// it tracked TinyVGG's Infer most closely from one 50 ms window to the
// next (correlation 0.94 of the logarithms). It is the benchmark's own code, so a change to the
// program does not move it.

// refDecodesPerSec is the reference speed: about the meter's rate in
// the calibration host's fast mode. A normalized timing reads as it
// would on a host that runs the meter this fast.
const refDecodesPerSec = 1500

// hostMeter collects a phase's probe timings.
type hostMeter struct {
	total time.Duration
	n     int
	last  time.Duration
}

type meterRequest struct {
	Data []float32 `json:"data"`
}

// meterBody is the body every probe decodes. Its inputs come from a
// fixed seed, not from --seed, so the reference speed holds for every
// run.
var meterBody = func() []byte {
	x := workload.RandTensor(workload.NewRNG(0x6d65746572), 32, 32, 3)
	b, err := json.Marshal(meterRequest{Data: x.Data})
	if err != nil {
		panic(err)
	}
	return b
}()

// probe decodes the body once and returns how long it took.
func (m *hostMeter) probe() time.Duration {
	t0 := time.Now()
	var v meterRequest
	if err := json.Unmarshal(meterBody, &v); err != nil {
		panic("perfbench: host meter body does not decode: " + err.Error())
	}
	d := time.Since(t0)
	m.total += d
	m.n++
	m.last = d
	return d
}

// probeN runs n probes back to back.
func (m *hostMeter) probeN(n int) {
	for i := 0; i < n; i++ {
		m.probe()
	}
}

// rate is decodes per second over every probe so far, 0 without one.
func (m *hostMeter) rate() float64 {
	if m.n == 0 || m.total <= 0 {
		return 0
	}
	return float64(m.n) / m.total.Seconds()
}

// factor is the phase's host speed relative to the reference: below 1
// on a slow host. Multiplying a latency, or dividing a rate, by it reads
// the value at the reference speed.
func factor(p phaseStats) float64 { return p.HostRate / refDecodesPerSec }
