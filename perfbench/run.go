package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/serve"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// run is one invocation: a workload at a seed, end-to-end or traced.
type run struct {
	w       *benchWorkload
	seed    uint64
	seconds time.Duration
	traced  bool
	outDir  string

	feat  sched.Features
	procs int
	pool  *exec.Pool
	ec    *exec.Ctx

	inputs  []*tensor.Tensor
	refs    [][]float32
	bodies  [][]byte
	artPath string
	setups  setupTimes
}

// execute builds the model, saves and reloads it, sets up, and runs the
// workload's phases, returning the filled record.
func (r *run) execute() (*record, error) {
	r.feat = sched.Detect()
	r.procs = runtime.GOMAXPROCS(0)
	r.pool = exec.NewPool(r.procs)
	r.pool.SetSource("perfbench: GOMAXPROCS")
	defer r.pool.Close()
	r.ec = exec.Pooled(r.pool, r.procs)

	rec := &record{Env: environment(r, r.feat.String()), Correct: true, Metrics: map[string]Metric{}}
	artPath, err := r.prepare()
	if err != nil {
		return nil, err
	}
	defer os.Remove(artPath)

	r.artPath = artPath
	// A served end-to-end run spreads its set-ups over its rounds (see
	// served), so a slow spell of the host at the start does not decide
	// setup_s. The last set-up made here is the one that serves.
	upfront := r.w.SetupReps
	if !r.w.Offline && !r.traced {
		upfront = 1
	}
	if err := r.repeatSetUp(upfront - 1); err != nil {
		return nil, err
	}
	s, err := r.setups.setUp(r.w, artPath, r.feat, r.ec, r.procs)
	if err != nil {
		return nil, err
	}
	defer s.stop()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.set("resident_mb", "MiB", float64(ms.HeapAlloc)/(1<<20))

	switch {
	case r.w.Offline && r.traced:
		err = r.offlineTraced(rec, s)
	case r.w.Offline:
		err = r.offline(rec, s)
	case r.traced:
		err = r.servedTraced(rec, s)
	default:
		err = r.served(rec, s)
	}
	if err != nil {
		return nil, err
	}
	st := r.setups.stats()
	rec.Setup = st
	rec.Metrics["setup_s"] = sampleMetric("s", st.AtRef, "median over set-ups, at the reference host speed")
	rec.Metrics["setup_s.measured"] = sampleMetric("s", st.Total, "median over set-ups")
	for _, p := range rec.Phases {
		rec.set("loadgen."+p.Name+".sent", "count", float64(p.Sent))
		rec.set("loadgen."+p.Name+".ok", "count", float64(p.OK))
		rec.set("loadgen."+p.Name+".failed", "count", float64(p.Failed))
		rec.Attempted += p.Sent
		rec.Failed += p.Failed
		if p.Wrong > 0 {
			rec.Correct = false
		}
	}
	if !r.traced {
		rec.set("success_rate", "ratio", float64(rec.Attempted-rec.Failed)/float64(max(rec.Attempted, 1)))
	}
	return rec, nil
}

// repeatSetUp runs n timed set-ups of the saved artifact and shuts each
// down again.
func (r *run) repeatSetUp(n int) error {
	for i := 0; i < n; i++ {
		s, err := r.setups.setUp(r.w, r.artPath, r.feat, r.ec, r.procs)
		if err != nil {
			return err
		}
		s.stop()
	}
	return nil
}

// prepare builds the model from its fixed weight seed, draws the seeded
// inputs, computes their reference logits on the in-memory model,
// pre-encodes the request bodies, and saves the artifact set-up loads.
func (r *run) prepare() (string, error) {
	built, err := buildModel(r.w, r.feat)
	if err != nil {
		return "", err
	}
	built.SetExec(r.ec)
	r.inputs = make([]*tensor.Tensor, r.w.Inputs)
	for i := range r.inputs {
		rng := workload.NewRNG(r.seed*0x9E3779B97F4A7C15 + uint64(i) + 1)
		r.inputs[i] = workload.RandTensor(rng, built.InH, built.InW, built.InC)
	}
	if r.refs, err = referenceLogits(built, r.inputs); err != nil {
		return "", err
	}
	if !r.w.Offline {
		r.bodies = make([][]byte, len(r.inputs))
		for i, x := range r.inputs {
			if r.bodies[i], err = json.Marshal(serve.InferRequest{Data: x.Data}); err != nil {
				return "", err
			}
		}
	}
	dir := filepath.Join(r.outDir, "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.bflw", r.w.Name, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := built.Save(f); err != nil {
		f.Close()
		return "", fmt.Errorf("saving %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// schedule is the workload's arrival process for one phase.
func (r *run) schedule(phase string, rate float64, dur time.Duration) []Arrival {
	if r.w.Burst {
		return burstSchedule(r.seed, phase, rate, dur, r.w.BurstPeriod, r.w.BurstDuty, r.w.Inputs)
	}
	return poissonSchedule(r.seed, phase, rate, dur, r.w.Inputs)
}

func (r *run) inferPath() string { return "/v1/models/" + r.w.Name + "/infer" }

// warm runs one second of the nominal schedule and half a second of
// the capacity load before anything is timed, so lazy set-up (lane
// buffers, pool workers, heap growth) finishes first: without it the
// first round read about twice the tail of the later ones. Its answers
// are checked like any other phase's.
func (r *run) warm(rec *record, h http.Handler) {
	_, ps, _ := r.openLoopPhase(h, "warmup", r.w.Nominal, time.Second)
	rec.Phases = append(rec.Phases, ps, r.capacityPhase(h, "warmup.capacity", int(r.w.CapRate/2)))
}

// openLoopPhase runs one scheduled phase against the server, checks
// every answer against the oracle and returns the outcomes and stats,
// with the host meter's rate from the phase's idle moments.
func (r *run) openLoopPhase(h http.Handler, name string, rate float64, dur time.Duration) ([]outcome, phaseStats, time.Time) {
	runtime.GC()
	sched := r.schedule(name, rate, dur)
	m := &hostMeter{}
	outs, t0 := runOpenLoop(h, r.inferPath(), r.bodies, sched, m)
	checkOutcomes(outs, r.refs)
	ps := summarizePhase(name, rate, dur, outs, r.w.LimitMs)
	ps.HostRate = m.rate()
	return outs, ps, t0
}

// rounds is how many times an end-to-end run repeats its phases, so
// each metric averages over the whole run rather than over one stretch
// of the shared host's weather.
const rounds = 20

// served is the end-to-end run of a served workload: rounds of an
// open-loop phase at the nominal rate and then a closed-loop capacity
// phase, each given half of the round. Neither phase offers more than
// the server admits, so a healthy run refuses no request. Each round
// first times its share of the workload's set-ups, which are shut down
// again.
func (r *run) served(rec *record, s *serving) error {
	h := s.srv.Handler()
	r.warm(rec, h)
	half := time.Duration(0.5 * float64(r.seconds) / rounds)
	capN := max(1, int(r.w.CapRate*half.Seconds()))
	perRound := (r.w.SetupReps - 1 + rounds - 1) / rounds
	var nominal, capacity []phaseStats
	var atRef []float64
	for k := 1; k <= rounds; k++ {
		if err := r.repeatSetUp(perRound); err != nil {
			return err
		}
		outs, ps, _ := r.openLoopPhase(h, fmt.Sprintf("r%d.nominal", k), r.w.Nominal, half)
		nominal = append(nominal, ps)
		for i := range outs {
			atRef = append(atRef, outs[i].latency()*factor(ps))
		}
		cs := r.capacityPhase(h, fmt.Sprintf("r%d.capacity", k), capN)
		capacity = append(capacity, cs)
		rec.Phases = append(rec.Phases, ps, cs)
	}
	// The gated timings are read at the host meter's reference speed;
	// the timings as measured stay in the record as "<name>.measured".
	norm := func(read func(phaseStats) float64) func(phaseStats) float64 {
		return func(p phaseStats) float64 { return read(p) * factor(p) }
	}
	rec.Metrics["latency_p50_ms"] = overRounds("ms", nominal, norm(p50Of), "median at the nominal rate, at the reference host speed")
	rec.Metrics["latency_p95_ms"] = overRounds("ms", nominal, norm(p95Of), "p95 at the nominal rate, at the reference host speed")
	tail := summarize(atRef)
	rec.Metrics["latency_p99_ms"] = Metric{Value: finite(tail.Tail, 1000*half.Seconds()), Unit: "ms", N: tail.N,
		Note: fmt.Sprintf("p%d of all %d nominal requests, each at its round's reference host speed", tail.TailPct, tail.N)}
	rec.Metrics["latency_p50_ms.measured"] = overRounds("ms", nominal, p50Of, "median at the nominal rate")
	rec.Metrics["latency_p95_ms.measured"] = overRounds("ms", nominal, p95Of, "p95 at the nominal rate")
	what := fmt.Sprintf("correct answers per second with %d closed-loop clients", r.w.CapClients)
	rec.Metrics["sustained_rps"] = pooledGoodput(capacity, factor, what+", at the reference host speed")
	rec.Metrics["sustained_rps.measured"] = pooledGoodput(capacity, func(phaseStats) float64 { return 1 }, what)
	var rounds []phaseStats
	rounds = append(append(rounds, nominal...), capacity...)
	rec.Metrics["host.decodes_per_s"] = overRounds("1/s", rounds, hostRateOf, "host meter's rate")
	return nil
}

// capacityPhase sends n requests from the workload's closed-loop
// clients, inputs in seeded order, and checks every answer. The server
// is never idle in it, so the host meter probes just before and just
// after.
func (r *run) capacityPhase(h http.Handler, name string, n int) phaseStats {
	runtime.GC()
	rng := phaseRNG(r.seed, name)
	order := make([]int, n)
	for i := range order {
		order[i] = rng.Intn(len(r.bodies))
	}
	m := &hostMeter{}
	m.probeN(capacityProbes)
	outs, elapsed := runClosedLoop(h, r.inferPath(), r.bodies, order, r.w.CapClients)
	m.probeN(capacityProbes)
	checkOutcomes(outs, r.refs)
	ps := summarizePhase(name, 0, elapsed, outs, r.w.LimitMs)
	ps.HostRate = m.rate()
	return ps
}

// capacityProbes is how many host-meter probes a capacity phase runs on
// each side: about 7 ms at the reference speed.
const capacityProbes = 10

func p50Of(p phaseStats) float64      { return p.Latency.Median }
func p95Of(p phaseStats) float64      { return p.Latency.P95 }
func goodputOf(p phaseStats) float64  { return p.Goodput }
func hostRateOf(p phaseStats) float64 { return p.HostRate }

// pooledGoodput is the correct answers of every round over their
// summed time, each round's time scaled by speed (its host factor, or 1
// for the rate as measured), with the per-round readings as its sample. Not the
// median: a round's capacity reading falls into a fast or a slow mode
// (about 600 and 350 req/s on steady-tinydup on the calibration host,
// with the same code), and the median of a two-mode sample jumps
// between the modes where the pooled rate moves with their mix.
func pooledGoodput(ps []phaseStats, speed func(phaseStats) float64, what string) Metric {
	var ok, secs float64
	vals := make([]float64, len(ps))
	for i, p := range ps {
		ok += float64(p.OK)
		secs += p.Seconds * speed(p)
		vals[i] = p.Goodput / speed(p)
	}
	m := medianMetric("req/s", vals)
	m.Value = ok / secs
	m.Note = fmt.Sprintf("%s, pooled over %d rounds; per round: %.4g", what, len(ps), vals)
	return m
}

// overRounds is the mean over rounds of one reading of a phase, less
// the highest and lowest tenth of the rounds, with the per-round
// readings and each round's highest supported tail in its note. Not the
// median, for the reason pooledGoodput gives: the rounds fall into the
// host's fast and slow modes, and the trimmed mean moves with their mix
// where the median jumps between them. The trim drops single stalled
// rounds (one read 117 ms among rounds of 4–8 ms).
func overRounds(unit string, ps []phaseStats, read func(phaseStats) float64, what string) Metric {
	vals := make([]float64, len(ps))
	detail := make([]string, len(ps))
	for i, p := range ps {
		vals[i] = read(p)
		detail[i] = fmt.Sprintf("%.4g (n=%d, p%d %.4g ms)", vals[i], p.Latency.N, p.Latency.TailPct, p.Latency.Tail)
	}
	m := medianMetric(unit, vals)
	m.Value = trimmedMean(vals, 0.1)
	m.Note = fmt.Sprintf("mean over %d rounds, highest and lowest tenth left out, of the %s: %s",
		len(ps), what, strings.Join(detail, ", "))
	return m
}

// sampleMetric reports a sample's median with its count and quartiles.
func sampleMetric(unit string, s Sample, what string) Metric {
	return Metric{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3, Note: what}
}

// medianMetric reports the median of vals with their count and quartiles.
func medianMetric(unit string, vals []float64) Metric {
	s := summarize(vals)
	return Metric{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// closedLoop runs callers goroutines, each inferring on its own network
// back to back until dur has passed, with inputs in seeded order. Each
// output is checked against the reference; a mismatch is an outcome
// with Wrong set.
func (r *run) closedLoop(name string, nets []*graph.Network, dur time.Duration) ([]outcome, time.Duration) {
	runtime.GC()
	per := make([][]outcome, len(nets))
	done := make(chan struct{})
	t0 := time.Now()
	for c, n := range nets {
		go func(c int, n *graph.Network) {
			defer func() { done <- struct{}{} }()
			rng := phaseRNG(r.seed, fmt.Sprintf("%s/%d", name, c))
			for time.Since(t0) < dur {
				in := rng.Intn(len(r.inputs))
				start := time.Since(t0)
				out, err := n.InferChecked(r.inputs[in])
				o := outcome{Input: in, Due: start, Sent: start, Done: time.Since(t0), Status: http.StatusOK}
				switch {
				case err != nil:
					o.Status = -1
				case !sameLogits(out, r.refs[in]):
					o.Wrong = true
				}
				per[c] = append(per[c], o)
			}
		}(c, n)
	}
	for range nets {
		<-done
	}
	elapsed := time.Since(t0)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// offline is the end-to-end run of the offline workload, in rounds of
// one caller on the procs-worker pool (the paper's Fig. 11 setting,
// latency mode) and then procs callers each running serially on its own
// clone (throughput mode: one image per core, no dispatch). Its p95s are
// read from all rounds' images together: one round holds too few.
func (r *run) offline(rec *record, s *serving) error {
	net := s.art.Net
	net.Infer(r.inputs[0])
	var clones []*graph.Network
	for len(clones) < r.procs {
		c := net.Clone()
		c.SetExec(exec.Serial())
		c.Infer(r.inputs[0])
		clones = append(clones, c)
	}
	half := time.Duration(0.5 * float64(r.seconds) / rounds)
	var single, conc []phaseStats
	var singleOuts, concOuts []outcome
	for k := 1; k <= rounds; k++ {
		outs, el := r.closedLoop(fmt.Sprintf("r%d.single", k), []*graph.Network{net}, half)
		single = append(single, summarizePhase(fmt.Sprintf("r%d.single", k), 0, el, outs, 0))
		singleOuts = append(singleOuts, outs...)
		outs, el = r.closedLoop(fmt.Sprintf("r%d.concurrent", k), clones, half)
		conc = append(conc, summarizePhase(fmt.Sprintf("r%d.concurrent", k), 0, el, outs, 0))
		concOuts = append(concOuts, outs...)
	}
	rec.Phases = append(rec.Phases, single...)
	rec.Phases = append(rec.Phases, conc...)
	singleAll := summarizePhase("single", 0, r.seconds/2, singleOuts, 0)
	concAll := summarizePhase("concurrent", 0, r.seconds/2, concOuts, 0)

	rec.Metrics["latency_p50_ms"] = overRounds("ms", single, p50Of, "median per image, one caller")
	rec.Metrics["latency_p95_ms"] = p95Metric(singleAll.Latency, "per image, one caller, all rounds")
	rec.Metrics["latency_p99_ms"] = Metric{Value: singleAll.Latency.Tail, Unit: "ms", N: singleAll.Latency.N,
		Note: fmt.Sprintf("p%d per image, one caller, all rounds", singleAll.Latency.TailPct)}
	rec.Metrics["latency_p95_ms.high"] = p95Metric(concAll.Latency,
		fmt.Sprintf("per image, %d serial callers, all rounds", len(clones)))
	rec.Metrics["sustained_rps"] = overRounds("req/s", conc, goodputOf,
		fmt.Sprintf("correct images per second, %d serial callers", len(clones)))
	rec.Metrics["images_per_s"] = overRounds("img/s", single, goodputOf, "correct images per second, one caller")
	return nil
}

// p95Metric reports a sample's p95 with its count and highest
// supported tail.
func p95Metric(s Sample, what string) Metric {
	return Metric{Value: s.P95, Unit: "ms", N: s.N,
		Note: fmt.Sprintf("p95 of %d, %s; p%d %.4g ms", s.N, what, s.TailPct, s.Tail)}
}
