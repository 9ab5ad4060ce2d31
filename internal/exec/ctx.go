package exec

import (
	"context"
	"time"

	"bitflow/internal/faultinject"
)

// Observer receives one per-layer timing observation from a graph
// forward pass run under this context. Implementations must be safe for
// concurrent use when the Ctx is shared across replicas.
type Observer func(layer, kind string, d time.Duration)

// Ctx carries everything one inference dispatch needs from the execution
// layer: the thread budget, the pool to dispatch on (or the legacy
// spawn-per-call mode), a context.Context for cancellation, and an
// optional per-layer timing observer.
//
// A Ctx is an immutable value after construction — With* methods return
// derived copies — so one base Ctx can be shared by every replica of a
// server and specialized per request with WithContext. A nil *Ctx is
// valid everywhere and means "serial, uncancellable": operators called
// with nil run inline on the caller's goroutine.
type Ctx struct {
	pool    *Pool
	threads int
	spawn   bool // legacy spawn-per-call dispatch (bench baseline)
	ctx     context.Context
	obs     Observer
}

// Serial returns a context that runs everything inline on the caller's
// goroutine — the threads=1 case of the old plumbing.
func Serial() *Ctx { return &Ctx{threads: 1} } //bitflow:alloc-ok tiny context header; the sanctioned path attaches one via SetExec and reuses it

// Threads returns a context dispatching on the shared default pool with
// the given budget — the drop-in replacement for a raw `threads int`.
func Threads(n int) *Ctx {
	if n <= 1 {
		return Serial()
	}
	//bitflow:alloc-ok tiny context header; SetExec callers construct once
	return &Ctx{pool: Default(), threads: n}
}

// Pooled returns a context dispatching on p with the given thread budget
// (the budget counts the caller: ParallelFor uses at most n-1 workers).
func Pooled(p *Pool, n int) *Ctx {
	if n <= 1 {
		return Serial()
	}
	return &Ctx{pool: p, threads: n}
}

// Spawn returns a context using the legacy spawn-per-call dispatch: every
// ParallelFor starts fresh goroutines. Kept for the dispatch-overhead
// benchmark (bitflow-bench exec) and as a pool-free fallback; unlike the
// pre-exec code, chunk panics are still captured and re-raised on the
// caller's goroutine.
func Spawn(n int) *Ctx {
	if n <= 1 {
		return Serial()
	}
	return &Ctx{threads: n, spawn: true}
}

// WithContext returns a copy of c whose Err and layer-boundary checks
// observe ctx — how a server threads a per-request deadline through an
// inference without rebuilding the dispatch configuration.
func (c *Ctx) WithContext(ctx context.Context) *Ctx {
	d := c.derive()
	d.ctx = ctx
	return d
}

// WithObserver returns a copy of c that reports per-layer timings to obs.
func (c *Ctx) WithObserver(obs Observer) *Ctx {
	d := c.derive()
	d.obs = obs
	return d
}

// derive copies c, treating nil as Serial.
func (c *Ctx) derive() *Ctx {
	if c == nil {
		return Serial()
	}
	d := *c
	return &d
}

// Budget reports the thread budget (1 for nil or serial contexts) — what
// scaling models and diagnostics used to read from a raw threads int.
func (c *Ctx) Budget() int {
	if c == nil || c.threads < 1 {
		return 1
	}
	return c.threads
}

// Pool returns the pool this context dispatches on, or nil (serial or
// spawn mode).
func (c *Ctx) Pool() *Pool {
	if c == nil {
		return nil
	}
	return c.pool
}

// Context returns the attached cancellation context, or nil.
func (c *Ctx) Context() context.Context {
	if c == nil {
		return nil
	}
	return c.ctx
}

// Observer returns the attached per-layer timing observer, or nil.
func (c *Ctx) Observer() Observer {
	if c == nil {
		return nil
	}
	return c.obs
}

// Err reports the attached context's cancellation state; nil when no
// context is attached. Graph forward passes check it between layers so a
// cancelled request stops within one layer's latency.
func (c *Ctx) Err() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// ParallelFor splits [0, total) into at most Budget() contiguous chunks
// and runs body over them, blocking until all complete — the multi-core
// engine for the paper's fused-H·W (conv/pool) and K (dense) splits.
// Chunk boundaries are the same as the old per-call plumbing used, and
// chunks never overlap, so outputs are bit-identical at any budget.
//
// A chunk panic is captured where it happens and re-raised here, on the
// caller's goroutine, once every other chunk has finished — so a
// recover/resilience.Safe above this call observes it and the process
// survives. A nil or serial context runs body(0, total) inline.
func (c *Ctx) ParallelFor(total int, body func(start, end int)) {
	threads := c.Budget()
	if threads <= 1 || total <= 1 {
		_ = faultinject.ExecChunk.Fire(c.Context(), "", 0)
		body(0, total)
		return
	}
	if threads > total {
		threads = total
	}
	chunk := (total + threads - 1) / threads
	nchunks := (total + chunk - 1) / chunk
	if nchunks <= 1 {
		_ = faultinject.ExecChunk.Fire(c.Context(), "", 0)
		body(0, total)
		return
	}
	//bitflow:alloc-ok one job header + completion channel per parallel region, needed for claim-loop state and panic propagation
	j := &job{body: body, total: total, chunk: chunk, fctx: c.Context(), fin: make(chan struct{})}
	j.pending.Store(int64(nchunks))
	if c.spawn || c.pool == nil {
		for i := 1; i < nchunks; i++ {
			go j.run()
		}
		j.run()
	} else {
		c.pool.dispatch(j, threads)
	}
	<-j.fin
	if j.panv != nil {
		panic(j.panv)
	}
}
