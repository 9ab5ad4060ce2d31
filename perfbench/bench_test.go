package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitflow/internal/serve"
)

func TestScheduleSameSeedSameArrivals(t *testing.T) {
	for _, mk := range []func(seed uint64) []Arrival{
		func(seed uint64) []Arrival { return poissonSchedule(seed, "nominal", 250, 2*time.Second, 64) },
		func(seed uint64) []Arrival {
			return burstSchedule(seed, "nominal", 100, 2*time.Second, 200*time.Millisecond, 0.25, 64)
		},
	} {
		a, b, c := mk(7), mk(7), mk(8)
		if len(a) == 0 {
			t.Fatal("empty schedule")
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("same seed gave different arrivals")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds gave identical arrivals")
		}
	}
	if reflect.DeepEqual(poissonSchedule(7, "step1", 250, time.Second, 64), poissonSchedule(7, "step2", 250, time.Second, 64)) {
		t.Error("different phases share one arrival stream")
	}
}

func TestScheduleRateAndBursts(t *testing.T) {
	dur := 20 * time.Second
	p := poissonSchedule(3, "nominal", 200, dur, 8)
	if got := float64(len(p)) / dur.Seconds(); math.Abs(got-200) > 10 {
		t.Errorf("poisson rate %.1f req/s, want ≈200", got)
	}
	period := 200 * time.Millisecond
	b := burstSchedule(3, "nominal", 200, dur, period, 0.25, 8)
	if got := float64(len(b)) / dur.Seconds(); math.Abs(got-200) > 10 {
		t.Errorf("burst average rate %.1f req/s, want ≈200", got)
	}
	for _, a := range b {
		if a.At%period >= period/4 {
			t.Fatalf("arrival at %v falls in the off window", a.At)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{5000, 99}, {1000, 99}, {999, 98}, {100, 90}, {34, 70}, {19, 50}, {1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The rule itself: at least 10 samples beyond the chosen rank, and
	// fewer beyond the next percentile up.
	for n := 20; n <= 3000; n += 7 {
		p := tailPercentile(n)
		beyond := func(p int) int { return n - int(math.Ceil(float64(p)*float64(n)/100)) }
		if beyond(p) < minBeyond {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, p, beyond(p))
		}
		if p < 99 && beyond(p+1) >= minBeyond {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", n, p)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles([1 2]) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestTrimmedMeanDropsEachEnd(t *testing.T) {
	// Twenty rounds, one stalled: the tenth cut at each end drops the
	// stall and the fastest two.
	xs := []float64{117}
	for i := 0; i < 19; i++ {
		xs = append(xs, float64(4+i%2))
	}
	if got, want := trimmedMean(xs, 0.1), 4.5; got != want {
		t.Errorf("trimmedMean = %v, want %v", got, want)
	}
	if got := trimmedMean([]float64{3}, 0.1); got != 3 {
		t.Errorf("trimmedMean([3]) = %v, want 3", got)
	}
}

func okOutcomes(n int, lat time.Duration) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := time.Duration(i) * time.Millisecond
		outs[i] = outcome{Due: due, Sent: due, Done: due + lat, Status: http.StatusOK}
	}
	return outs
}

func TestRefusedRequestMissesLimit(t *testing.T) {
	refused := outcome{Due: 0, Sent: 0, Done: time.Microsecond, Status: http.StatusTooManyRequests}
	if !math.IsInf(refused.latency(), 1) {
		t.Fatalf("a refused request's latency is %v, want +Inf", refused.latency())
	}
	outs := okOutcomes(1000, time.Millisecond)
	if ps := summarizePhase("p", 1000, time.Second, outs, 10); !ps.MeetsSLO {
		t.Fatalf("all fast and successful: %+v should meet a 10 ms limit", ps)
	}
	// 1% refused with a 1 µs answer: fast, yet every one misses the
	// limit, so the tail lands on a refusal.
	for i := 0; i < 20; i++ {
		outs[i*50].Status = http.StatusTooManyRequests
	}
	ps := summarizePhase("p", 1000, time.Second, outs, 10)
	if ps.MeetsSLO || ps.Failed != 20 || ps.Latency.Tail <= 10 {
		t.Errorf("20 refused of 1000: meets=%v failed=%d tail=%v; want a missed limit", ps.MeetsSLO, ps.Failed, ps.Latency.Tail)
	}
	// The record stays encodable however many requests failed.
	for i := range outs {
		outs[i].Status = http.StatusServiceUnavailable
	}
	if _, err := json.Marshal(summarizePhase("p", 1000, time.Second, outs, 10)); err != nil {
		t.Errorf("a phase where every request failed does not encode: %v", err)
	}
}

func TestClosedLoopSendsEachRequestOnceWithinClients(t *testing.T) {
	const clients = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	seen := map[string]int{}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(b)]++
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
	})
	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	order := []int{0, 1, 2, 2, 1, 0, 0, 0, 2, 1, 1, 2, 0}
	outs, elapsed := runClosedLoop(h, "/infer", bodies, order, clients)
	if len(outs) != len(order) || elapsed <= 0 {
		t.Fatalf("%d outcomes in %v for %d requests", len(outs), elapsed, len(order))
	}
	for i, o := range outs {
		if o.Input != order[i] || o.Status != http.StatusOK || o.Done < o.Sent || o.Due != o.Sent {
			t.Errorf("request %d: %+v", i, o)
		}
	}
	if seen["a"] != 5 || seen["b"] != 4 || seen["c"] != 4 {
		t.Errorf("bodies served %v, want a:5 b:4 c:4", seen)
	}
	if p := peak.Load(); p > clients {
		t.Errorf("%d requests in flight at once, want at most %d", p, clients)
	}
}

func TestOracleCatchesOneFlippedLogit(t *testing.T) {
	ref := []float32{0.5, -1.25, 3, 7.75, -0.125}
	body := func(logits []float32) []byte {
		b, err := json.Marshal(serve.InferResponse{Logits: logits})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !responseMatches(body(ref), ref) {
		t.Fatal("identical logits rejected")
	}
	for i := range ref {
		flipped := append([]float32(nil), ref...)
		flipped[i] = math.Float32frombits(math.Float32bits(flipped[i]) ^ 1)
		if responseMatches(body(flipped), ref) {
			t.Errorf("logit %d off by one ulp was accepted", i)
		}
		outs := []outcome{{Status: http.StatusOK, Body: body(flipped)}}
		if checkOutcomes(outs, [][]float32{ref}) != 1 || outs[0].ok() {
			t.Errorf("checkOutcomes did not mark the flipped logit %d wrong", i)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var spans []Span
		add := func(parent int, a, b time.Duration) int {
			spans = append(spans, Span{ID: len(spans), Parent: parent, Start: a, End: b})
			return len(spans) - 1
		}
		root := add(-1, 0, 1000)
		for i := 0; i < 1+r.Intn(6); i++ {
			// Children may overlap each other and spill past the parent.
			a := time.Duration(r.Intn(1200) - 100)
			kid := add(root, a, a+time.Duration(r.Intn(600)))
			for j := 0; j < r.Intn(3); j++ {
				b := a + time.Duration(r.Intn(300))
				add(kid, b, b+time.Duration(r.Intn(400)))
			}
		}
		for i, s := range selfTimes(spans) {
			if s < 0 {
				t.Fatalf("trial %d: span %d has self time %v", trial, i, s)
			}
		}
	}
	// Disjoint children inside the parent: self times add up to the
	// parent's duration.
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 50, End: 90},
	}
	self := selfTimes(spans)
	if self[0] != 30 || self[0]+self[1]+self[2] != 100 {
		t.Errorf("self times %v do not add up to the parent's 100", self)
	}
}

func TestComparisonVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		c      comparison
		expect string
	}{
		{"faster latency", comparison{base: base, change: scale(0.8), bound: 0.1}, "better"},
		{"slower latency", comparison{base: base, change: scale(1.3), bound: 0.1}, "worse"},
		{"same", comparison{base: base, change: scale(1.0), bound: 0.1}, "within bound"},
		{"noisy parent", comparison{base: []float64{5, 15, 10, 6, 14, 9, 11, 7, 13, 10}, change: scale(1.05), bound: 0.1}, "unresolved"},
		{"higher is better", comparison{base: base, change: scale(0.7), higher: true, bound: 0.1}, "worse"},
	} {
		if got := tc.c.verdict(); got != tc.expect {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.expect)
		}
	}
}

func TestHostMeterReadsAtTheReferenceSpeed(t *testing.T) {
	var v meterRequest
	if err := json.Unmarshal(meterBody, &v); err != nil || len(v.Data) != 32*32*3 {
		t.Fatalf("meter body decodes to %d floats (err %v), want %d", len(v.Data), err, 32*32*3)
	}
	var m hostMeter
	if m.rate() != 0 {
		t.Errorf("rate with no probes = %v, want 0", m.rate())
	}
	m.probeN(3)
	if m.n != 3 || m.rate() <= 0 {
		t.Errorf("after 3 probes: n=%d rate=%v", m.n, m.rate())
	}
	if f := factor(phaseStats{HostRate: refDecodesPerSec / 2}); f != 0.5 {
		t.Errorf("factor at half the reference rate = %v, want 0.5", f)
	}
}

func TestIdleProbesWaitForAnIdleServer(t *testing.T) {
	p := &idleProber{m: &hostMeter{}}
	p.inflight.Add(1)
	spinUntil(time.Now().Add(30*time.Millisecond), p)
	if p.m.n != 0 {
		t.Fatalf("%d probes ran while a request was in flight", p.m.n)
	}
	p.inflight.Add(-1)
	until := time.Now().Add(30 * time.Millisecond)
	spinUntil(until, p)
	if p.m.n == 0 {
		t.Error("no probe ran while the server was idle")
	}
	if time.Now().Before(until) {
		t.Error("spinUntil returned before its deadline")
	}
}
