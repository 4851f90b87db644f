package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/durable"
	"repro/internal/serve"
)

// stack is the serving stack cmd/lsbpd builds, brought up in-process:
// a prepared durable LinBP solver behind a FrontEnd with a published
// fixpoint.
type stack struct {
	solver core.Solver // the prepared solver (undecorated)
	front  *serve.FrontEnd
	dir    string // its durable state
}

// close shuts the stack down and deletes its durable state.
func (s *stack) close() {
	s.front.Close()
	s.solver.Close()
	os.RemoveAll(s.dir)
}

// problem returns a private copy of the base problem, so that every
// set-up starts from the same unprepared graph.
func (in *inputs) problem() *core.Problem {
	return &core.Problem{Graph: in.g.Clone(), Explicit: in.labels.Clone(), Ho: coupling.Fig6bResidual(), EpsilonH: epsilonH}
}

// solverOptions are lsbpd's defaults plus the fixed schedule: serial
// kernel, ScheduleAuto, tolerance 1e-12, at most 200 rounds.
func solverOptions(extra ...core.Option) []core.Option {
	return append([]core.Option{core.WithTol(solveTol), core.WithMaxIter(maxIter), core.WithSchedule(core.ScheduleAuto)}, extra...)
}

// setUp brings the stack up once over a fresh durable directory under
// stateRoot and returns it with the time from the generated inputs to
// the published fixpoint: Prepare (reordering and the snapshot
// publish included), serve.New, and the first Update{}. With a tracer
// the solver and the filesystem are decorated and each step is a span.
func setUp(ctx context.Context, in *inputs, stateRoot string, t *tracer) (*stack, time.Duration, error) {
	dir, err := os.MkdirTemp(stateRoot, "state-")
	if err != nil {
		return nil, 0, err
	}
	p := in.problem()
	fsys := durable.OS
	if t != nil {
		fsys = tracedFS{FS: durable.OS, t: t}
	}
	opts := solverOptions(core.WithDurabilityFS(fsys, dir, core.DurabilityPolicy{Sync: core.SyncAlways}))

	st := stack{dir: dir}
	root := int64(0) // the set-up span when tracing
	step := func(name string, fn func() error) error {
		if t == nil {
			return fn()
		}
		return t.around(t.id(), name, root, -1, fn)
	}
	bringUp := func() error {
		if err := step("core.Prepare", func() (err error) {
			st.solver, err = core.Prepare(p, core.MethodLinBP, opts...)
			return err
		}); err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		var served core.Solver = st.solver
		if t != nil {
			served = tracedSolver{Solver: st.solver, t: t}
		}
		st.front = serve.New(served, serve.Config{})
		return step("serve.Update", func() error {
			_, err := st.front.Update(ctx, core.Update{})
			return err
		})
	}

	start := time.Now()
	if t == nil {
		err = bringUp()
	} else {
		root = t.id()
		err = t.around(root, "setup", 0, -1, bringUp)
	}
	elapsed := time.Since(start)
	if err != nil {
		if st.front != nil {
			st.front.Close()
		}
		if st.solver != nil {
			st.solver.Close()
		}
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return &st, elapsed, nil
}
