package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitflow/internal/batch"
	"bitflow/internal/graph"
	"bitflow/internal/serve"
	"bitflow/internal/tensor"
)

// The traced run repeats the nominal schedule of the end-to-end run,
// first untraced and then with spans, and then replays requests layer
// by layer through each layer's public functions. Every span is
// recorded here, around calls into the program; nothing inside the
// program is instrumented.

// gaps are what the traced run cannot see from outside the program yet.
var gaps = []string{
	"per-layer timings on the batched path: InferBatch has no observer, so graph.layer.* come from the serial path only",
	"admission wait inside serve: the gate is not observable from outside, so it is part of serve.self_ms",
}

// layerTimer is an exec.Observer that records each layer as a span under
// the current graph.infer span and collects per-layer durations.
type layerTimer struct {
	log    *spanLog
	req    int
	parent int
	ms     map[string][]float64
}

func newLayerTimer(log *spanLog) *layerTimer {
	return &layerTimer{log: log, ms: map[string][]float64{}}
}

func (lt *layerTimer) observe(layer, kind string, d time.Duration) {
	end := time.Now()
	lt.log.add("graph.layer."+layer, lt.req, lt.parent, end.Add(-d), end)
	lt.ms[layer] = append(lt.ms[layer], float64(d)/1e6)
}

// infer runs one traced forward pass on n (whose exec context carries
// lt.observe) as a graph.infer span under parent.
func (lt *layerTimer) infer(n *graph.Network, x *tensor.Tensor, req, parent int) ([]float32, time.Duration, error) {
	t0 := time.Now()
	id := lt.log.add("graph.infer", req, parent, t0, t0)
	lt.req, lt.parent = req, id
	out, err := n.InferChecked(x)
	t1 := time.Now()
	lt.log.spans[id].End = t1.Sub(lt.log.origin)
	return out, t1.Sub(t0), err
}

// metricName turns a layer name into a metric-name segment: fused
// layers are named "conv1.2+pool1", and "+" is not allowed in names.
func metricName(layer string) string { return strings.ReplaceAll(layer, "+", "_") }

// servedTraced is the traced run of a served workload.
func (r *run) servedTraced(rec *record, s *serving) error {
	h := s.srv.Handler()
	r.warm(rec, h)
	dur := time.Duration(0.3 * float64(r.seconds))

	_, untraced, _ := r.openLoopPhase(h, "nominal", r.w.Nominal, dur)

	// The traced phase: the same schedule, with the queue depth sampled.
	stop := make(chan struct{})
	var depthMax int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if d := s.srv.ModelMetrics(r.w.Name).Snapshot().QueueDepth; d > depthMax {
					depthMax = d
				}
			}
		}
	}()
	outs, traced, t0 := r.openLoopPhase(h, "nominal", r.w.Nominal, dur)
	close(stop)
	wg.Wait()
	traced.Name = "traced"
	rec.Phases = append(rec.Phases, untraced, traced)

	log := newSpanLog(t0)
	handler := make([]float64, 0, len(outs))
	for i, o := range outs {
		root := log.addOffsets("request", i, -1, o.Due, o.Done)
		log.addOffsets("loadgen.lag", i, root, o.Due, o.Sent)
		log.addOffsets("serve.handler", i, root, o.Sent, o.Done)
		if o.Status == 200 {
			handler = append(handler, float64(o.Done-o.Sent)/1e6)
		}
	}
	hs := summarize(handler)
	rec.setSample("serve.handler_p50_ms", "ms", hs)
	rec.Metrics["serve.handler_p99_ms"] = Metric{Value: hs.Tail, Unit: "ms", N: hs.N, Note: fmt.Sprintf("p%d", hs.TailPct)}

	snap := s.srv.ModelMetrics(r.w.Name).Snapshot()
	rec.set("resilience.shed", "count", float64(snap.Shed))
	rec.set("resilience.bad_requests", "count", float64(snap.BadRequests))
	rec.set("resilience.panics", "count", float64(snap.PanicsRecovered))
	rec.set("resilience.queue_depth_max", "count", float64(depthMax))
	if r.w.Batching && snap.Batches > 0 {
		b := float64(snap.Batches)
		rec.set("batch.occupancy_mean", "count", snap.BatchMeanOccupancy)
		rec.set("batch.occupancy_max", "count", float64(snap.BatchMaxOccupancy))
		rec.set("batch.flush_window_share", "ratio", float64(snap.BatchFlushWindow)/b)
		rec.set("batch.flush_full_share", "ratio", float64(snap.BatchFlushFull)/b)
	}

	// Layer-down replay of the first requests of the traced schedule:
	// decode → forward (per layer) → encode, each a span under one
	// replay root per request.
	n := s.art.Net.Clone()
	lt := newLayerTimer(log)
	n.SetExec(r.ec.WithObserver(lt.observe))
	replays := min(len(outs), 300)
	var decode, encode, infer []float64
	d0 := r.pool.Report().Dispatches
	for i := 0; i < replays; i++ {
		o := outs[i]
		req := len(outs) + i
		start := time.Now()
		root := log.add("replay", req, -1, start, start)
		var in serve.InferRequest
		if err := json.NewDecoder(bytes.NewReader(r.bodies[o.Input])).Decode(&in); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		t1 := time.Now()
		log.add("serve.decode", req, root, start, t1)
		x := tensor.FromSlice(n.InH, n.InW, n.InC, in.Data)
		logits, d, err := lt.infer(n, x, req, root)
		if err != nil {
			return fmt.Errorf("replay infer: %w", err)
		}
		if !sameLogits(logits, r.refs[o.Input]) {
			rec.Correct = false
		}
		t2 := time.Now()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(serve.InferResponse{Logits: logits, Elapsed: d.String()}); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		t3 := time.Now()
		log.add("serve.encode", req, root, t2, t3)
		log.spans[root].End = t3.Sub(log.origin)
		decode = append(decode, float64(t1.Sub(start))/1e6)
		infer = append(infer, float64(d)/1e6)
		encode = append(encode, float64(t3.Sub(t2))/1e6)
	}
	dispatches := float64(r.pool.Report().Dispatches-d0) / float64(replays)
	ds, is := summarize(decode), summarize(infer)
	rec.setSample("serve.decode_ms", "ms", ds)
	rec.setSample("serve.encode_ms", "ms", summarize(encode))
	rec.setSample("graph.infer_ms", "ms", is)
	rec.set("serve.self_ms", "ms", hs.Median-is.Median)
	rec.set("exec.dispatches_per_img", "count", dispatches)
	var bodyBytes int
	for _, b := range r.bodies {
		bodyBytes += len(b)
	}
	rec.set("serve.body_kb", "KiB", float64(bodyBytes)/float64(len(r.bodies))/1024)
	allocs, bytesPer := allocsPer(len(r.bodies), func(i int) {
		var in serve.InferRequest
		_ = json.NewDecoder(bytes.NewReader(r.bodies[i])).Decode(&in)
	})
	rec.set("serve.decode_allocs", "count", allocs)
	rec.set("serve.decode_kb", "KiB", bytesPer/1024)

	if err := r.graphMetrics(rec, s.art.Net, lt, servedMaxBatch(s)); err != nil {
		return err
	}
	if r.w.Batching {
		if err := r.batchReplay(rec, s, log, 2*len(outs)); err != nil {
			return err
		}
	}
	// Both p50s at the reference host speed, so the host's weather
	// between the two phases does not read as tracing overhead.
	rec.set("trace.overhead_pct", "%",
		100*(traced.Latency.Median*factor(traced)/(untraced.Latency.Median*factor(untraced))-1))
	rec.set("loadgen.lag_p99_ms", "ms", traced.Lag.Tail)
	r.setupMetrics(rec)
	return r.writeSpans(rec, log)
}

// offlineTraced is the traced run of the offline workload: one caller,
// untraced and then with per-layer spans.
func (r *run) offlineTraced(rec *record, s *serving) error {
	net := s.art.Net
	net.Infer(r.inputs[0])
	dur := time.Duration(0.35 * float64(r.seconds))
	d0 := r.pool.Report().Dispatches
	outs, el := r.closedLoop("single", []*graph.Network{net}, dur)
	dispatches := float64(r.pool.Report().Dispatches-d0) / float64(len(outs))
	untraced := summarizePhase("nominal", 0, el, outs, 0)

	log := newSpanLog(time.Now())
	n := net.Clone()
	lt := newLayerTimer(log)
	n.SetExec(r.ec.WithObserver(lt.observe))
	n.Infer(r.inputs[0])
	lt.ms = map[string][]float64{}
	log.spans = nil
	rng := phaseRNG(r.seed, "single/0")
	var touts []outcome
	var infer []float64
	t0 := time.Now()
	for req := 0; time.Since(t0) < dur; req++ {
		in := rng.Intn(len(r.inputs))
		start := time.Now()
		root := log.add("request", req, -1, start, start)
		out, d, err := lt.infer(n, r.inputs[in], req, root)
		end := time.Now()
		log.spans[root].End = end.Sub(log.origin)
		o := outcome{Input: in, Due: start.Sub(t0), Sent: start.Sub(t0), Done: end.Sub(t0), Status: 200}
		switch {
		case err != nil:
			o.Status = -1
		case !sameLogits(out, r.refs[in]):
			o.Wrong = true
		}
		touts = append(touts, o)
		infer = append(infer, float64(d)/1e6)
	}
	traced := summarizePhase("traced", 0, time.Since(t0), touts, 0)
	rec.Phases = append(rec.Phases, untraced, traced)
	rec.setSample("graph.infer_ms", "ms", summarize(infer))
	rec.set("exec.dispatches_per_img", "count", dispatches)
	if err := r.graphMetrics(rec, net, lt, 2); err != nil {
		return err
	}
	rec.set("trace.overhead_pct", "%", 100*(traced.Latency.Median/untraced.Latency.Median-1))
	rec.set("loadgen.lag_p99_ms", "ms", traced.Lag.Tail)
	r.setupMetrics(rec)
	return r.writeSpans(rec, log)
}

// graphMetrics fills the graph, bitpack and kernels metrics: per-layer
// medians from the observer, allocations per Infer, InferBatch at
// maxBatch, and the counts computed from the built shapes.
func (r *run) graphMetrics(rec *record, net *graph.Network, lt *layerTimer, maxBatch int) error {
	for layer, ms := range lt.ms {
		if layer == "input" {
			rec.setSample("bitpack.pack_ms", "ms", summarize(ms))
			continue
		}
		rec.setSample("graph.layer."+r.w.Model+"."+metricName(layer)+"_ms", "ms", summarize(ms))
	}
	n := net.Clone()
	n.SetExec(r.ec)
	reps := 50
	if r.w.Offline {
		reps = 3
	}
	allocs, bytesPer := allocsPer(reps, func(i int) { n.Infer(r.inputs[i%len(r.inputs)]) })
	rec.set("graph.allocs_per_infer", "count", allocs)
	rec.set("graph.alloc_kb_per_infer", "KiB", bytesPer/1024)
	rec.set("graph.activation_kb", "KiB", float64(net.ActivationBytes())/1024)
	rec.set("graph.model_kb", "KiB", float64(net.ModelSize().BinarizedBytes)/1024)

	n.EnsureBatch(maxBatch)
	xs := make([]*tensor.Tensor, maxBatch)
	for i := range xs {
		xs[i] = r.inputs[i%len(r.inputs)]
	}
	calls := 10
	if r.w.Offline {
		calls = 1
	}
	var perImg []float64
	for c := 0; c < calls; c++ {
		t := time.Now()
		outs, err := n.InferBatch(xs)
		perImg = append(perImg, float64(time.Since(t))/1e6/float64(maxBatch))
		if err != nil {
			return fmt.Errorf("InferBatch: %w", err)
		}
		for i, out := range outs {
			if !sameLogits(out, r.refs[i%len(r.inputs)]) {
				rec.Correct = false
			}
		}
	}
	m := summarize(perImg)
	rec.Metrics["graph.infer_batch_ms_per_img"] = Metric{Value: m.Median, Unit: "ms", N: m.N, Q1: m.Q1, Q3: m.Q3,
		Note: fmt.Sprintf("InferBatch at B=%d", maxBatch)}

	k := kernelCounts(net)
	note := "computed from the built shapes and Network.Compression()"
	rec.Metrics["kernels.xorpop_mwords_per_img"] = Metric{Value: k.xorpopWords / 1e6, Unit: "Mwords", N: 1, Note: note}
	rec.Metrics["kernels.weight_kb_per_img"] = Metric{Value: k.weightBytes / 1024, Unit: "KiB", N: 1, Note: note}
	rec.set("kernels.compressed_layers", "count", float64(k.compressed))
	rec.set("kernels.compress_ratio_min", "ratio", k.minRatio)
	return nil
}

// servedMaxBatch is the batch size the server runs InferBatch at: its
// effective MaxBatch when batching, else 8, the size batching would
// default to.
func servedMaxBatch(s *serving) int {
	if mb := s.srv.EffectiveConfig().MaxBatch; mb > 0 {
		return mb
	}
	return 8
}

// setupMetrics splits setup_s into its stages.
func (r *run) setupMetrics(rec *record) {
	st := r.setups.stats()
	rec.setSample("registry.load_s", "s", st.Load)
	rec.setSample("registry.verify_s", "s", st.Verify)
	rec.setSample("serve.start_s", "s", st.Start)
}

// writeSpans writes the span log as a Chrome trace next to the record.
func (r *run) writeSpans(rec *record, log *spanLog) error {
	rec.Gaps = gaps
	dir := filepath.Join(r.outDir, "spans", r.w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed%d-%d.json", r.seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := map[string]string{"workload": r.w.Name, "seed": strconv.FormatUint(r.seed, 10), "tool": "perfbench"}
	if err := writeChrome(f, log.spans, meta); err != nil {
		f.Close()
		return err
	}
	rec.SpanFile = path
	return f.Close()
}

// allocsPer calls f(0..n-1) and returns heap allocations and bytes per
// call. The server is idle while it runs, so the delta is f's own.
func allocsPer(n int, f func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// replayRunner is the bench's batch.Runner: it wraps InferBatch and
// records each batch's span and members.
type replayRunner struct {
	net  *graph.Network
	mu   *sync.Mutex
	runs *[]batchRun
}

type batchRun struct {
	xs         []*tensor.Tensor
	start, end time.Time
}

func (rr replayRunner) InferBatch(xs []*tensor.Tensor) ([][]float32, error) {
	t0 := time.Now()
	out, err := rr.net.InferBatch(xs)
	t1 := time.Now()
	rr.mu.Lock()
	*rr.runs = append(*rr.runs, batchRun{xs: append([]*tensor.Tensor(nil), xs...), start: t0, end: t1})
	rr.mu.Unlock()
	return out, err
}

// batchReplay drives batch.New directly, with the server's default
// window and max batch and one worker per replica, on the nominal
// schedule: batch.submit spans per request with batch.wait (queued until
// its batch starts) and batch.run children.
func (r *run) batchReplay(rec *record, s *serving, log *spanLog, reqBase int) error {
	var mu sync.Mutex
	var runs []batchRun
	b, err := batch.New(batch.Config{
		Workers: r.procs,
		NewRunner: func() (batch.Runner, error) {
			n := s.art.Net.Clone()
			n.SetExec(r.ec)
			n.EnsureBatch(servedMaxBatch(s))
			return replayRunner{net: n, mu: &mu, runs: &runs}, nil
		},
	})
	if err != nil {
		return fmt.Errorf("batch replay: %w", err)
	}
	sched := r.schedule("nominal", r.w.Nominal, time.Duration(0.2*float64(r.seconds)))
	type sub struct {
		x          *tensor.Tensor
		start, end time.Time
		ok         bool
	}
	subs := make([]sub, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range sched {
		spinUntil(t0.Add(a.At), nil)
		x := r.inputs[a.Input]
		subs[i].x = tensor.FromSlice(x.H, x.W, x.C, x.Data)
		wg.Add(1)
		go func(i int, in int) {
			defer wg.Done()
			subs[i].start = time.Now()
			out, err := b.Submit(context.Background(), subs[i].x)
			subs[i].end = time.Now()
			subs[i].ok = err == nil && sameLogits(out, r.refs[in])
		}(i, a.Input)
	}
	wg.Wait()
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Close(cctx); err != nil {
		return fmt.Errorf("closing batch replay: %w", err)
	}
	runOf := map[*tensor.Tensor]*batchRun{}
	var perImg []float64
	for i := range runs {
		br := &runs[i]
		for _, x := range br.xs {
			runOf[x] = br
		}
		perImg = append(perImg, float64(br.end.Sub(br.start))/1e6/float64(len(br.xs)))
	}
	var wait []float64
	for i, sb := range subs {
		if !sb.ok {
			rec.Correct = false
			continue
		}
		br := runOf[sb.x]
		if br == nil {
			continue
		}
		req := reqBase + i
		root := log.add("batch.submit", req, -1, sb.start, sb.end)
		log.add("batch.wait", req, root, sb.start, br.start)
		log.add("batch.run", req, root, br.start, br.end)
		wait = append(wait, float64(br.start.Sub(sb.start))/1e6)
	}
	rec.setSample("batch.wait_ms", "ms", summarize(wait))
	rec.setSample("batch.run_ms_per_img", "ms", summarize(perImg))
	return nil
}

// kernelStats are per-image kernel counts computed from the built
// shapes and the compression plan, not measured.
type kernelStats struct {
	xorpopWords, weightBytes float64
	compressed               int
	minRatio                 float64
}

// kernelCounts walks the layers: a binary conv does one XOR+popcount
// per packed weight word per output position (distinct words only when
// compressed), a dense layer one per word, and every layer reads its
// (distinct) weight words once per image. All convs here are 3×3,
// stride 1, pad 1, so their output positions are their input's H×W.
func kernelCounts(n *graph.Network) kernelStats {
	press := map[string]graph.LayerCompression{}
	for _, lc := range n.Compression() {
		press[lc.Layer] = lc
	}
	var k kernelStats
	h, w := n.InH, n.InW
	for _, l := range n.Layers() {
		if lc, ok := press[l.Name]; ok {
			words := lc.TotalWords
			if lc.Selected {
				words = lc.DistinctWords
				k.compressed++
				if k.minRatio == 0 || lc.Ratio < k.minRatio {
					k.minRatio = lc.Ratio
				}
			}
			positions := 1
			if strings.HasPrefix(l.Kind, "conv") {
				positions = h * w
			}
			k.xorpopWords += float64(positions * words)
			k.weightBytes += float64(8 * words)
		}
		if dims := strings.Split(l.OutDims, "x"); len(dims) == 3 {
			h, _ = strconv.Atoi(dims[0])
			w, _ = strconv.Atoi(dims[1])
		}
	}
	return k
}
