package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one open-loop request as the generator saw it. Due, Sent
// and Done are offsets from the phase start: Sent-Due is generator lag,
// Done-Due is the request's latency.
type outcome struct {
	Input  int
	Due    time.Duration
	Sent   time.Duration
	Done   time.Duration
	Status int
	Body   []byte
	// Wrong marks a 200 whose logits differ from the reference.
	Wrong bool
}

// ok reports whether the request succeeded with the right answer.
func (o *outcome) ok() bool { return o.Status == http.StatusOK && !o.Wrong }

// latency is Done-Due for a successful request and +Inf otherwise, so a
// refused, failed or wrong request misses every latency limit.
func (o *outcome) latency() float64 {
	if !o.ok() {
		return math.Inf(1)
	}
	return float64(o.Done-o.Due) / 1e6
}

// lookahead is how early a request's goroutine is started: it builds
// the request and then sleeps until the due time itself. Waking many
// goroutines on their own timers, rather than one dispatcher that must
// win a P for every send, keeps one busy P from delaying every later
// arrival behind it.
const lookahead = 5 * time.Millisecond

// spinUntil yields the P until t instead of sleeping. An idle P lets
// the process's CPU halt, and on a virtual machine the wake-up from a
// halt waits for the hypervisor: on the shared calibration host that
// added 1–1.5 ms, varying with the host's other tenants, to every
// request that arrived at an idle server. Yielding keeps the CPU busy
// between arrivals, so the server's own goroutines and timers still run
// first and latency measures the program rather than the wake-up.
//
// With p set, while no request is in flight and one probe (twice the
// last one's time) fits before t, it runs a host-meter probe instead of
// yielding, at most one per probeEvery, so the meter samples the host
// across the whole phase without delaying any request.
func spinUntil(t time.Time, p *idleProber) {
	for {
		now := time.Now()
		if !now.Before(t) {
			return
		}
		if p != nil && p.inflight.Load() == 0 && now.Sub(p.last) >= probeEvery &&
			t.Sub(now) > max(2*p.m.last, 2*time.Millisecond) {
			p.m.probe()
			p.last = now
			continue
		}
		runtime.Gosched()
	}
}

// idleProber runs an open-loop phase's host-meter probes.
type idleProber struct {
	m        *hostMeter
	inflight atomic.Int64
	last     time.Time
}

// probeEvery spaces the host meter's probes in an open-loop phase: at
// 1500 decodes per second, at most about 4% of the time.
const probeEvery = 20 * time.Millisecond

// runOpenLoop drives handler with the schedule: each arrival is sent at
// its due time whether or not earlier ones finished, from its own
// goroutine, straight into ServeHTTP with its pre-encoded body. The
// dispatcher yields rather than sleeps between arrivals and probes the
// host meter m while the server is idle (spinUntil). It returns once
// every request has completed, with outcomes in schedule order and the
// phase start time.
func runOpenLoop(h http.Handler, path string, bodies [][]byte, sched []Arrival, m *hostMeter) ([]outcome, time.Time) {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	p := &idleProber{m: m}
	t0 := time.Now()
	for i, a := range sched {
		spinUntil(t0.Add(a.At-lookahead), p)
		wg.Add(1)
		p.inflight.Add(1)
		go func(o *outcome, a Arrival) {
			defer wg.Done()
			defer p.inflight.Add(-1)
			o.Input, o.Due = a.Input, a.At
			req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, path, bytes.NewReader(bodies[a.Input]))
			if err != nil {
				o.Status = -1
				return
			}
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			if d := time.Until(t0.Add(a.At)); d > 0 {
				time.Sleep(d)
			}
			o.Sent = time.Since(t0)
			h.ServeHTTP(rec, req)
			o.Done = time.Since(t0)
			o.Status = rec.Code
			o.Body = rec.Body.Bytes()
		}(&out[i], a)
	}
	wg.Wait()
	return out, t0
}

// runClosedLoop drives handler from clients goroutines that share the
// requests of order: each client sends its next request as soon as its
// last one is answered, until every request has been sent. A request's
// Due and Sent are the moment it is sent, so its latency is the
// handler's answer time. It returns the outcomes in order and the time
// from the first send to the last answer.
func runClosedLoop(h http.Handler, path string, bodies [][]byte, order []int, clients int) ([]outcome, time.Duration) {
	out := make([]outcome, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				o := &out[i]
				o.Input = order[i]
				req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, path, bytes.NewReader(bodies[o.Input]))
				if err != nil {
					o.Status = -1
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				o.Sent = time.Since(t0)
				o.Due = o.Sent
				h.ServeHTTP(rec, req)
				o.Done = time.Since(t0)
				o.Status = rec.Code
				o.Body = rec.Body.Bytes()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// phaseStats is the generator's account of one phase.
type phaseStats struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate_rps"`
	Seconds float64 `json:"seconds"`
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Failed  int     `json:"failed"`
	Wrong   int     `json:"wrong"`
	Latency Sample  `json:"latency_ms"`
	Lag     Sample  `json:"lag_ms"`
	Goodput float64 `json:"goodput_rps"`
	// HostRate is the host meter's decodes per second during the phase
	// (see hostmeter.go); 0 where the phase was not metered.
	HostRate float64 `json:"host_decodes_per_s"`
	// MeetsSLO: the tail is within the workload's limit and at most 1%
	// of the requests failed.
	MeetsSLO bool `json:"meets_limit"`
}

// summarizePhase reduces outcomes (already checked against the oracle)
// to the phase's counts and samples. A failed request's latency is
// reported as the phase length, its stand-in for "never answered".
func summarizePhase(name string, rate float64, dur time.Duration, outs []outcome, limitMs float64) phaseStats {
	ps := phaseStats{Name: name, Rate: rate, Seconds: dur.Seconds(), Sent: len(outs)}
	lat := make([]float64, len(outs))
	lag := make([]float64, len(outs))
	for i := range outs {
		o := &outs[i]
		switch {
		case o.ok():
			ps.OK++
		case o.Wrong:
			ps.Wrong++
			ps.Failed++
		default:
			ps.Failed++
		}
		lat[i] = o.latency()
		lag[i] = float64(o.Sent-o.Due) / 1e6
	}
	ceiling := float64(dur) / 1e6
	ps.Latency = summarize(lat)
	for _, v := range []*float64{&ps.Latency.Median, &ps.Latency.Q1, &ps.Latency.Q3,
		&ps.Latency.P95, &ps.Latency.Tail, &ps.Latency.Max} {
		*v = finite(*v, ceiling)
	}
	ps.Lag = summarize(lag)
	// Goodput is over the measured span, from the phase start to the
	// last answer, not the scheduled length.
	var span time.Duration
	for i := range outs {
		span = max(span, outs[i].Done)
	}
	if span > 0 {
		ps.Goodput = float64(ps.OK) / span.Seconds()
	}
	ps.MeetsSLO = len(outs) > 0 && ps.Latency.Tail <= limitMs &&
		float64(ps.Failed) <= 0.01*float64(len(outs))
	return ps
}
