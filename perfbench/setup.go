package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/sched"
	"bitflow/internal/serve"
)

// setupStats summarizes a run's set-ups: each stage's samples and the
// whole, artifact file to serving.
type setupStats struct {
	Reps   int    `json:"reps"`
	Load   Sample `json:"load_s"`
	Verify Sample `json:"verify_s"`
	Start  Sample `json:"start_s"`
	Total  Sample `json:"total_s"`
	// AtRef is Total at the host meter's reference speed (hostmeter.go).
	AtRef Sample `json:"total_at_ref_s"`
}

// serving is what one set-up produced: the verified artifact, and for
// served workloads the running server.
type serving struct {
	art  *registry.Artifact
	srv  *serve.Server
	stop func()
}

// maxQueue is the server's queue bound: deep enough that a stall of
// the shared host, which holds every in-flight request, cannot push an
// open-loop phase at the nominal rate into shedding. The benchmark
// measures latency and capacity, not admission control.
const maxQueue = 1024

// setUp loads the artifact at path, verifies it and brings it to
// serving: NewMulti until ready for a served workload, SetExec for an
// offline one. The execution context is attached before Verify, so no
// stage runs on the Threads shim or the process-default pool.
func setUp(w *benchWorkload, path string, feat sched.Features, ec *exec.Ctx, replicas int) (*serving, [3]time.Duration, error) {
	var stages [3]time.Duration
	t0 := time.Now()
	art, err := registry.LoadArtifact(path, "bench", feat)
	if err != nil {
		return nil, stages, err
	}
	t1 := time.Now()
	art.Net.SetExec(ec)
	if err := art.Verify(); err != nil {
		return nil, stages, err
	}
	t2 := time.Now()
	s := &serving{art: art, stop: func() {}}
	if !w.Offline {
		srv, err := serve.NewMulti([]serve.ModelSpec{{
			Name: w.Name,
			Net:  art.Net,
			Cfg:  serve.Config{Replicas: replicas, MaxQueue: maxQueue, Exec: ec, Batching: w.Batching},
		}})
		if err != nil {
			return nil, stages, err
		}
		if !srv.Ready() {
			return nil, stages, fmt.Errorf("server for %s is not ready after warm-up", w.Name)
		}
		s.srv = srv
	}
	t3 := time.Now()
	stages = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	if s.srv != nil {
		s.stop = runLifecycle(s.srv)
	}
	return s, stages, nil
}

// runLifecycle runs the server's own lifecycle (ServeListener) on a
// listener that never accepts, so shutting it down retires its replica
// sets and stops its batch workers the way a real drain does. Requests
// never touch it: they go straight into Handler().ServeHTTP. The
// returned stop drains and waits for ServeListener to return.
func runLifecycle(srv *serve.Server) func() {
	ctx, cancel := context.WithCancel(context.Background())
	l := newIdleListener()
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := srv.ServeListener(ctx, l, serve.HTTPConfig{ShutdownGrace: 10 * time.Second})
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("  server shutdown: %v\n", err)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// idleListener is a net.Listener with no connections: Accept blocks
// until Close.
type idleListener struct {
	once sync.Once
	done chan struct{}
}

func newIdleListener() *idleListener { return &idleListener{done: make(chan struct{})} }

func (l *idleListener) Accept() (net.Conn, error) {
	<-l.done
	return nil, net.ErrClosed
}

func (l *idleListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *idleListener) Addr() net.Addr { return idleAddr{} }

type idleAddr struct{}

func (idleAddr) Network() string { return "inproc" }
func (idleAddr) String() string  { return "inproc" }

// setupTimes collects the stage timings of every set-up in a run, and
// each whole set-up at the host meter's reference speed.
type setupTimes struct {
	load, verify, start, total, atRef []float64
}

// setupProbes is how many host-meter probes run on each side of a
// set-up.
const setupProbes = 5

// setUp runs one timed set-up from a collected heap, so it does not
// pay for the garbage of the one before it, and returns it serving.
func (t *setupTimes) setUp(w *benchWorkload, path string, feat sched.Features, ec *exec.Ctx, replicas int) (*serving, error) {
	runtime.GC()
	var m hostMeter
	m.probeN(setupProbes)
	s, st, err := setUp(w, path, feat, ec, replicas)
	if err != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(t.total), err)
	}
	m.probeN(setupProbes)
	total := (st[0] + st[1] + st[2]).Seconds()
	t.load = append(t.load, st[0].Seconds())
	t.verify = append(t.verify, st[1].Seconds())
	t.start = append(t.start, st[2].Seconds())
	t.total = append(t.total, total)
	t.atRef = append(t.atRef, total*m.rate()/refDecodesPerSec)
	return s, nil
}

func (t *setupTimes) stats() setupStats {
	return setupStats{
		Reps: len(t.total), Load: summarize(t.load), Verify: summarize(t.verify),
		Start: summarize(t.start), Total: summarize(t.total), AtRef: summarize(t.atRef),
	}
}

// buildModel compiles the workload's model in memory from its fixed
// weight seed.
func buildModel(w *benchWorkload, feat sched.Features) (*graph.Network, error) {
	n, err := w.build(feat)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.Name, err)
	}
	return n, nil
}
