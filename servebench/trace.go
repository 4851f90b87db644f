package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/durable"
)

// span is one timed call into a layer. Parent links a span to the
// span that caused it; Req is the open-loop request index (or -1).
// The remaining fields are counts taken at the span's boundaries.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	Batch  int64  `json:"batch,omitempty"`  // core.SolveBatch: batch id
	Width  int    `json:"width,omitempty"`  // core.SolveBatch: requests in the batch
	Rounds int    `json:"rounds,omitempty"` // core.SolveBatch: rounds of this request's chunk
	Rows   int64  `json:"rows,omitempty"`   // core.Update: residual rows relaxed
	Allocs int64  `json:"allocs,omitempty"` // core.Update: heap objects allocated
	Bytes  int64  `json:"bytes,omitempty"`  // core.Update: heap bytes; durable.write: bytes written
	File   string `json:"file,omitempty"`   // durable spans: base name of the file
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer is the in-memory span recorder of a traced run. Spans are
// recorded around the benchmark's own calls into each layer and by
// the core.Solver and durable.FS decorators it installs.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// write is the span the write path is currently inside (a
	// serve.Update or core.Prepare span, then core.Update): the
	// durable decorator parents its spans to it. Writes serialize in
	// the solver, so one slot suffices.
	write atomic.Int64

	// reqs maps a request's explicit beliefs, which FrontEnd passes to
	// SolveBatch unchanged, to its serve.Solve span.
	reqs sync.Map
}

type reqTrace struct {
	span, req int64
	entry     time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }
func (t *tracer) id() int64          { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeFile stores the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// beginSolve registers an open-loop request before FrontEnd.Solve.
func (t *tracer) beginSolve(req int, e *beliefs.Residual) reqTrace {
	rt := reqTrace{span: t.id(), req: int64(req), entry: t.now()}
	t.reqs.Store(e, rt)
	return rt
}

func (t *tracer) endSolve(rt reqTrace, e *beliefs.Residual) {
	t.reqs.Delete(e)
	t.add(span{ID: rt.span, Req: rt.req, Name: "serve.Solve", Start: rt.entry, End: t.now()})
}

// around records fn as span id, named name, under parent and returns
// fn's error. While fn runs, the span is the write path's parent.
func (t *tracer) around(id int64, name string, parent, req int64, fn func() error) error {
	prev := t.write.Swap(id)
	start := t.now()
	err := fn()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()})
	t.write.Store(prev)
	return err
}

// tracedSolver is the core.Solver decorator installed between
// serve.New and the prepared solver.
type tracedSolver struct {
	core.Solver
	t *tracer
}

func (s tracedSolver) SolveBatch(ctx context.Context, reqs []core.Request) []core.Response {
	batch := s.t.id()
	start := s.t.now()
	resp := s.Solver.SolveBatch(ctx, reqs)
	end := s.t.now()
	for i, r := range reqs {
		v, ok := s.t.reqs.Load(r.E)
		if !ok {
			continue
		}
		rt := v.(reqTrace)
		s.t.add(span{ID: s.t.id(), Parent: rt.span, Req: rt.req, Name: "serve.queue", Start: rt.entry, End: start})
		s.t.add(span{ID: s.t.id(), Parent: rt.span, Req: rt.req, Name: "core.SolveBatch", Start: start, End: end,
			Batch: batch, Width: len(reqs), Rounds: resp[i].Info.Iterations})
	}
	return resp
}

func (s tracedSolver) Update(ctx context.Context, u core.Update) (*core.Result, error) {
	id := s.t.id()
	parent := s.t.write.Swap(id)
	before, a0 := s.Solver.Stats(), readAllocs()
	start := s.t.now()
	res, err := s.Solver.Update(ctx, u)
	end := s.t.now()
	a1, after := readAllocs(), s.Solver.Stats()
	s.t.write.Store(parent)
	s.t.add(span{ID: id, Parent: parent, Req: -1, Name: "core.Update", Start: start, End: end,
		Rows:   after.ResidualRowsRelaxed - before.ResidualRowsRelaxed,
		Allocs: a1.objects - a0.objects, Bytes: a1.bytes - a0.bytes})
	return res, err
}

type allocCount struct{ objects, bytes int64 }

func readAllocs() allocCount {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocCount{int64(s[0].Value.Uint64()), int64(s[1].Value.Uint64())}
}

// tracedFS is the durable.FS decorator passed to core.WithDurabilityFS.
type tracedFS struct {
	durable.FS
	t *tracer
}

func (f tracedFS) wrap(path string, x durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: x, t: f.t, name: filepath.Base(path)}, nil
}

func (f tracedFS) Create(path string) (durable.File, error) {
	x, err := f.FS.Create(path)
	return f.wrap(path, x, err)
}

func (f tracedFS) OpenAppend(path string) (durable.File, error) {
	x, err := f.FS.OpenAppend(path)
	return f.wrap(path, x, err)
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	start := f.t.now()
	err := f.FS.Rename(oldpath, newpath)
	f.t.durable("durable.rename", filepath.Base(newpath), start, 0)
	return err
}

func (f tracedFS) SyncDir(dir string) error {
	start := f.t.now()
	err := f.FS.SyncDir(dir)
	f.t.durable("durable.syncdir", "", start, 0)
	return err
}

type tracedFile struct {
	durable.File
	t    *tracer
	name string
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	f.t.durable("durable.write", f.name, start, n)
	return n, err
}

func (f tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.t.now()
	n, err := f.File.WriteAt(p, off)
	f.t.durable("durable.write", f.name, start, n)
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.t.durable("durable.sync", f.name, start, 0)
	return err
}

func (t *tracer) durable(name, file string, start time.Duration, n int) {
	t.add(span{ID: t.id(), Parent: t.write.Load(), Req: -1, Name: name, File: file, Start: start, End: t.now(), Bytes: int64(n)})
}
