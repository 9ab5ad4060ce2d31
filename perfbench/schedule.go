package main

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// Arrival is one scheduled request: when it is due, relative to the
// phase start, and which pre-encoded input it carries.
type Arrival struct {
	At    time.Duration
	Input int
}

// phaseRNG derives an independent, reproducible stream per (seed,
// phase), so adding a phase never shifts another phase's arrivals.
func phaseRNG(seed uint64, phase string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return rand.New(rand.NewSource(int64(seed ^ h.Sum64())))
}

// poissonSchedule draws arrivals with exponential gaps at rate req/s
// over dur: independent users, the open-loop steady case.
func poissonSchedule(seed uint64, phase string, rate float64, dur time.Duration, inputs int) []Arrival {
	r := phaseRNG(seed, phase)
	var out []Arrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, Arrival{At: at, Input: r.Intn(inputs)})
	}
}

// burstSchedule is an on/off source: each period starts with an "on"
// window of duty·period and then stays silent, so a burst runs at
// rate/duty while the average rate is rate. Every burst carries the
// same share of the phase's arrivals (rate·period, with the fractional
// part carried over), placed uniformly at random inside its window: the
// seed moves arrivals within a burst but not the size of bursts, which
// would otherwise dominate the latency spread between seeds.
func burstSchedule(seed uint64, phase string, rate float64, dur, period time.Duration, duty float64, inputs int) []Arrival {
	r := phaseRNG(seed, phase)
	on := time.Duration(duty * float64(period))
	perBurst := rate * period.Seconds()
	var out []Arrival
	for k := 0; time.Duration(k)*period < dur; k++ {
		p0 := time.Duration(k) * period
		n := int(float64(k+1)*perBurst) - int(float64(k)*perBurst)
		offs := make([]time.Duration, n)
		for i := range offs {
			offs[i] = time.Duration(r.Int63n(int64(on)))
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, off := range offs {
			if p0+off < dur {
				out = append(out, Arrival{At: p0 + off, Input: r.Intn(inputs)})
			}
		}
	}
	return out
}
