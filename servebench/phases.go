package main

import (
	"cmp"
	"context"
	"errors"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/serve"
)

// errLate marks an answer that arrived after its deadline without the
// front end noticing.
var errLate = errors.New("answer arrived after the deadline")

// phase is what one measured phase observed.
type phase struct {
	lat       map[string][]time.Duration // successful latencies by operation
	attempted int
	failed    int
	errs      []error         // the first few failures, for the log
	late      []time.Duration // open-loop generator lateness
	elapsed   time.Duration
	heapBase  uint64  // live heap before set-up: the benchmark's own data
	memPeakMB float64 // peak live heap during the phase, above heapBase

	answers map[int]*beliefs.Residual // query: the sampled answers, copied into slots made by newPhase
	tops    [][]serve.NodeBelief      // mixed: every TopK answer
	applied int                       // ingest, mixed: batches committed, in order

	front        [2]serve.Stats      // FrontEnd counters at the phase's start and end
	solver       [2]core.SolverStats // solver counters at the phase's start and end
	gc           [2]gcCounts
	writesFailed bool // a write failed, so the final state is unknown
}

func (ph *phase) record(op string, lat time.Duration, err error) {
	ph.attempted++
	if err != nil {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, err)
		}
		return
	}
	ph.lat[op] = append(ph.lat[op], lat)
}

// newPhase allocates what a phase keeps, so that a heap baseline read
// after it covers that too: the query check's answers are copied into
// slots made here.
func newPhase(in *inputs) *phase {
	ph := &phase{lat: map[string][]time.Duration{}, answers: map[int]*beliefs.Residual{}}
	for _, i := range in.sample {
		ph.answers[i] = beliefs.New(in.g.N(), classes)
	}
	return ph
}

// dispatchers is how many batches the front end runs at once, the
// default of serve.Config.MaxInFlight.
const dispatchers = 2

// warmBatches builds the solver's fused-batch workspaces before the
// query phase: every chunk width up to the solver's BatchHint, on as
// many goroutines as the front end dispatches, started together so
// that each width gets one workspace per dispatcher. The solver keeps
// the workspaces it builds, so without this the widths that a run's
// bursts happen to reach would decide mem_peak_mb; a long-running
// server reaches them all. The calls go straight to the solver, so
// they leave no trace in the front end's counters or the spans.
func warmBatches(ctx context.Context, st *stack, in *inputs) error {
	n, widest := in.g.N(), st.solver.Stats().BatchHint
	errs := make([]error, dispatchers)
	for c := 1; c <= widest; c++ {
		batches := make([][]core.Request, dispatchers)
		for d := range batches {
			batches[d] = make([]core.Request, c)
			for i := range batches[d] {
				batches[d][i].E = in.requests[(d*widest+i)%len(in.requests)].residual(n, classes)
			}
		}
		var wg sync.WaitGroup
		for d, reqs := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range st.solver.SolveBatch(ctx, reqs) {
					errs[d] = cmp.Or(errs[d], r.Err)
				}
			}()
		}
		wg.Wait()
	}
	return errors.Join(errs...)
}

// leadIn separates the phase's start from the first open-loop send.
const leadIn = 20 * time.Millisecond

// drive runs the workload's measured phase for seconds and records it
// in ph, which newPhase made.
func drive(ctx context.Context, st *stack, in *inputs, seconds float64, t *tracer, ph *phase) {
	ph.front[0], ph.solver[0], ph.gc[0] = st.front.Stats(), st.solver.Stats(), readGC()
	mem := startMemSampler()
	start := time.Now()
	switch in.w.name {
	case "query":
		runQuery(ctx, st, in, t, ph)
	case "ingest":
		runIngest(ctx, st, in, seconds, t, ph)
	default:
		runMixed(ctx, st, in, seconds, t, ph)
	}
	ph.elapsed = time.Since(start)
	peak := mem.stop()
	ph.memPeakMB = float64(peak-min(ph.heapBase, peak)) / 1e6
	ph.front[1], ph.solver[1], ph.gc[1] = st.front.Stats(), st.solver.Stats(), readGC()
}

// runQuery sends the what-if solves open-loop on the Poisson
// schedule, each parked in its own goroutine until it is answered,
// shed, or past its deadline.
func runQuery(ctx context.Context, st *stack, in *inputs, t *tracer, ph *phase) {
	n, w := in.g.N(), in.w
	type outcome struct {
		lat time.Duration
		err error
	}
	out := make([]outcome, len(in.sends))
	var wg sync.WaitGroup
	start := time.Now().Add(leadIn)
	for i, off := range in.sends {
		e := in.requests[i].residual(n, classes)
		due := start.Add(off)
		time.Sleep(time.Until(due))
		ph.late = append(ph.late, time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithDeadline(ctx, due.Add(w.deadline))
			defer cancel()
			var rt reqTrace
			if t != nil {
				rt = t.beginSolve(i, e)
			}
			dst, _, err := st.front.Solve(rctx, e)
			lat := time.Since(due)
			if t != nil {
				t.endSolve(rt, e)
			}
			if err == nil && lat > w.deadline {
				err = errLate
			}
			out[i] = outcome{lat: lat, err: err}
			if slot := ph.answers[i]; slot != nil && err == nil {
				for v := range n {
					copy(slot.Row(v), dst.Row(v))
				}
			}
		}()
	}
	wg.Wait()
	for i, o := range out {
		ph.record("solve", o.lat, o.err)
		if o.err != nil {
			delete(ph.answers, i)
		}
	}
}

// writer applies the batch stream in order through FrontEnd.Update.
type writer struct {
	ctx     context.Context
	st      *stack
	in      *inputs
	t       *tracer
	scratch *beliefs.Residual // reused SetExplicit matrix
	next    int               // index of the next batch
}

func newWriter(ctx context.Context, st *stack, in *inputs, t *tracer) *writer {
	return &writer{ctx: ctx, st: st, in: in, t: t, scratch: beliefs.New(in.g.N(), classes)}
}

// batch returns the j-th update of the stream: cycle j/3 inserts its
// edges, relabels its nodes, then deletes the edges again. The cycles
// repeat once the generated ones are used up.
func (in *inputs) batch(j int) (c cycle, step int) {
	return in.cycles[(j/3)%len(in.cycles)], j % 3
}

// apply sends the next batch and returns the Update's error.
func (wr *writer) apply() error {
	j := wr.next
	wr.next++
	c, step := wr.in.batch(j)
	var u core.Update
	switch step {
	case 0:
		u.AddEdges = c.edges
	case 1:
		c.relabel.writeInto(wr.scratch)
		defer c.relabel.clearFrom(wr.scratch)
		u.SetExplicit = wr.scratch
	case 2:
		u.RemoveEdges = c.edges
	}
	call := func() error {
		_, err := wr.st.front.Update(wr.ctx, u)
		return err
	}
	if wr.t == nil {
		return call()
	}
	return wr.t.around(wr.t.id(), "serve.Update", 0, int64(j), call)
}

// runIngest calls Update back to back for seconds.
func runIngest(ctx context.Context, st *stack, in *inputs, seconds float64, t *tracer, ph *phase) {
	wr := newWriter(ctx, st, in, t)
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(end) {
		start := time.Now()
		err := wr.apply()
		ph.record("update", time.Since(start), err)
		if err != nil {
			ph.writesFailed = true
			continue
		}
		ph.applied++
	}
}

// runMixed runs the open-loop writer beside one closed-loop TopK
// reader. The writer's sends queue in order behind a single update
// goroutine, so the batches commit in stream order and each is timed
// from its scheduled send.
func runMixed(ctx context.Context, st *stack, in *inputs, seconds float64, t *tracer, ph *phase) {
	wr := newWriter(ctx, st, in, t)
	start := time.Now().Add(leadIn)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	due := make(chan time.Time, len(in.sends)) // one slot per scheduled send: the scheduler never blocks

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // scheduler
		defer wg.Done()
		defer close(due)
		for _, off := range in.sends {
			at := start.Add(off)
			time.Sleep(time.Until(at))
			ph.late = append(ph.late, time.Since(at))
			due <- at
		}
	}()
	var updates []time.Duration
	var updateErrs []error
	go func() { // writer
		defer wg.Done()
		for at := range due {
			err := wr.apply()
			updates = append(updates, time.Since(at))
			updateErrs = append(updateErrs, err)
		}
	}()
	var tops []time.Duration
	var topErrs []error
	go func() { // reader
		defer wg.Done()
		time.Sleep(time.Until(start))
		for i := 0; time.Now().Before(end); i++ {
			t0 := time.Now()
			var s0 time.Duration
			if t != nil {
				s0 = t.now()
			}
			top, err := st.front.TopK(i%classes, in.w.topK)
			if t != nil {
				t.add(span{ID: t.id(), Req: int64(i), Name: "serve.TopK", Start: s0, End: t.now()})
			}
			tops = append(tops, time.Since(t0))
			topErrs = append(topErrs, err)
			if err == nil {
				// A copy, so the kept answer does not pin the n-row
				// array TopK sorted.
				ph.tops = append(ph.tops, slices.Clone(top))
			}
		}
	}()
	wg.Wait()
	for i, lat := range updates {
		ph.record("update", lat, updateErrs[i])
		if updateErrs[i] != nil {
			ph.writesFailed = true
		} else if !ph.writesFailed {
			ph.applied++
		}
	}
	for i, lat := range tops {
		ph.record("topk", lat, topErrs[i])
	}
}

// memSampler tracks the peak live Go heap while a phase runs: the
// largest heap the collector found reachable at any GC in the phase
// (or at the GC run just before it). Unlike the heap's momentary
// size it does not depend on when collections happen to fall, so it
// moves with the state and the in-flight work the program keeps.
type memSampler struct {
	quit chan struct{}
	peak chan uint64
}

// liveHeap is the heap the last GC found reachable, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var peak uint64
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			peak = max(peak, liveHeap())
			select {
			case <-m.quit:
				m.peak <- max(peak, liveHeap())
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the peak in bytes.
func (m *memSampler) stop() uint64 {
	close(m.quit)
	return <-m.peak
}

// gcCounts are the Go runtime's cumulative GC counters.
type gcCounts struct {
	cycles        uint64
	gcCPU, allCPU float64 // seconds
}

func readGC() gcCounts {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCounts{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}
