package difftest

// The crash-recovery half of the harness: every fault the injectable
// filesystem can produce — torn WAL appends, bit rot in the log or the
// snapshot, lying fsyncs, power loss mid-checkpoint — is driven
// through the real durable commit path, and the recovered solver is
// pinned against a fresh Prepare on the exact update prefix that was
// durable at the crash point. The acceptance contract: recovery lands
// within the differential bound OR fails with a typed actionable
// error; a silently wrong solver is the one outcome no scenario may
// produce.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
)

// crashDir is the durability directory every scenario runs under.
const crashDir = "state"

// crashOutcome is what a scenario promises about recovery: either the
// number of stream batches that must survive (openErr nil), or the
// sentinel Open must fail with.
type crashOutcome struct {
	survive int
	openErr error
}

// crashScenario is one cell of the fault matrix. run drives the
// prepared durable solver through (part of) the stream, injects the
// scenario's fault, and reports the promised outcome; any injected
// fault knob must be cleared before returning (the replacement disk
// at recovery time works).
type crashScenario struct {
	name   string
	method core.Method
	policy core.UpdatePolicy
	sync   core.DurabilityPolicy
	run    func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome
}

// noCompact pins the incremental commit path so a scenario's fault
// lands on the WAL alone; forceCompact makes every topology batch
// checkpoint.
var (
	noCompact    = core.UpdatePolicy{CompactionRatio: 1e12}
	forceCompact = core.UpdatePolicy{CompactionRatio: 1e-12}
)

func syncAlways() core.DurabilityPolicy { return core.DurabilityPolicy{Sync: core.SyncAlways} }

// applyBatches feeds stream batches through Update, tolerating only
// non-convergence.
func applyBatches(t testing.TB, s core.Solver, stream []DynamicBatch, n, k int) {
	t.Helper()
	ctx := context.Background()
	for bi, b := range stream {
		if _, err := s.Update(ctx, b.ToUpdate(n, k)); err != nil && !errors.Is(err, errs.ErrNotConverged) {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
}

// crashScenarios enumerates the fault matrix. The stream always holds
// three batches.
func crashScenarios() []crashScenario {
	walPath := durable.Join(crashDir, durable.WALFile)
	snapPath := durable.Join(crashDir, durable.SnapshotFile)
	return []crashScenario{
		{
			// The baseline: an orderly shutdown recovers everything.
			name: "clean-close", method: core.MethodLinBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream, n, k)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return crashOutcome{survive: len(stream)}
			},
		},
		{
			// Same, for a message-passing method: BP commits and
			// checkpoints the layout table the kernel methods use.
			// (core's TestOpenGraphOrderImage pins the reader of the
			// caller-order images BP and SBP wrote before.)
			name: "clean-close-bp", method: core.MethodBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream, n, k)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return crashOutcome{survive: len(stream)}
			},
		},
		{
			// Power loss with every append fsynced: nothing acknowledged
			// is lost, nothing beyond the log exists to lose.
			name: "power-loss-synced", method: core.MethodLinBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream, n, k)
				fs.Crash()
				return crashOutcome{survive: len(stream)}
			},
		},
		{
			// The disk dies 10 bytes into the last append: the torn frame
			// fails the write-ahead step, so the batch never commits, and
			// replay truncates the tail back to the record boundary.
			name: "torn-wal-append", method: core.MethodLinBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream[:len(stream)-1], n, k)
				size, err := fs.Size(walPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.FailWritesAfter(walPath, size+10); err != nil {
					t.Fatal(err)
				}
				last := stream[len(stream)-1]
				if _, err := s.Update(context.Background(), last.ToUpdate(n, k)); !errors.Is(err, durable.ErrInjected) {
					t.Fatalf("torn append: Update err = %v, want ErrInjected", err)
				}
				fs.ClearWriteFault(walPath)
				return crashOutcome{survive: len(stream) - 1}
			},
		},
		{
			// Bit rot inside the last WAL record: its checksum fails,
			// replay stops at the previous boundary and repairs the file.
			name: "wal-bit-rot", method: core.MethodLinBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream, n, k)
				size, err := fs.Size(walPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.FlipBit(walPath, size-1, 3); err != nil {
					t.Fatal(err)
				}
				return crashOutcome{survive: len(stream) - 1}
			},
		},
		{
			// A lying disk acknowledges every fsync and persists nothing:
			// power loss reverts to the Prepare-time snapshot. Lossy, but
			// a consistent prefix — never a torn state.
			name: "dropped-sync", method: core.MethodLinBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				fs.SetDropSync(true)
				applyBatches(t, s, stream, n, k)
				fs.SetDropSync(false)
				fs.Crash()
				return crashOutcome{survive: 0}
			},
		},
		{
			// The interval policy's documented loss bound: with fsync
			// every 2 appends, a crash after 3 batches keeps exactly 2.
			name: "fsync-interval-loss-bound", method: core.MethodLinBP, policy: noCompact,
			sync: core.DurabilityPolicy{Sync: core.SyncInterval, Interval: 2},
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream, n, k)
				fs.Crash()
				return crashOutcome{survive: len(stream) - 1}
			},
		},
		{
			// Power loss mid-checkpoint: the compacting batch's snapshot
			// rename never becomes durable (the directory fsync fails) and
			// rolls back at the crash — but the batch is already in the
			// log, so recovery replays it over the previous checkpoint.
			name: "interrupted-checkpoint", method: core.MethodLinBP, policy: forceCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream[:len(stream)-1], n, k)
				fs.SetFailSyncDir(true)
				last := stream[len(stream)-1]
				if _, err := s.Update(context.Background(), last.ToUpdate(n, k)); !errors.Is(err, durable.ErrInjected) {
					t.Fatalf("interrupted checkpoint: Update err = %v, want ErrInjected", err)
				}
				fs.SetFailSyncDir(false)
				fs.Crash()
				return crashOutcome{survive: len(stream)}
			},
		},
		{
			// Bit rot in a snapshot section: Open must refuse with the
			// typed corruption sentinel, never hand back a solver.
			name: "snapshot-bit-rot", method: core.MethodLinBP, policy: noCompact, sync: syncAlways(),
			run: func(t testing.TB, fs *durable.MemFS, s core.Solver, stream []DynamicBatch, n, k int) crashOutcome {
				applyBatches(t, s, stream, n, k)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if err := fs.FlipBit(snapPath, 4100, 5); err != nil {
					t.Fatal(err)
				}
				return crashOutcome{openErr: errs.ErrCorruptState}
			},
		},
	}
}

// RunCrashMatrix is the fault-injection acceptance suite: each
// scenario prepares a durable solver on a deterministic problem,
// drives the same three-batch update stream while injecting its
// fault, and then recovers. Recovery must yield a solver whose
// fixpoint matches a fresh Prepare on exactly the surviving update
// prefix within the differential bound — and must itself keep
// serving durably (one more batch, another close/open round-trip) —
// or fail with the promised typed error.
func RunCrashMatrix(t *testing.T, n, edges int, seed uint64) {
	for _, sc := range crashScenarios() {
		t.Run(fmt.Sprintf("%s/%v", sc.name, sc.method), func(t *testing.T) {
			k := 3
			p, err := Problem(n, edges, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			stream := DynamicStream(p, 3, seed+7)
			fs := durable.NewMemFS()
			opts := append(crashExtra(sc.method),
				core.WithDurabilityFS(fs, crashDir, sc.sync), core.WithUpdatePolicy(sc.policy))
			s, err := core.Prepare(p, sc.method, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out := sc.run(t, fs, s, stream, n, k)
			if out.openErr != nil {
				if _, err := core.OpenFS(fs, crashDir); !errors.Is(err, out.openErr) {
					t.Fatalf("Open after %s = %v, want %v", sc.name, err, out.openErr)
				}
				return
			}
			checkRecovered(t, fs, p, sc.method, stream, out.survive)
		})
	}
	t.Run("missing-state", func(t *testing.T) {
		if _, err := core.OpenFS(durable.NewMemFS(), crashDir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Open on empty dir = %v, want os.ErrNotExist", err)
		}
	})
}

// crashExtra pins tight stopping rules for the kernel methods so both
// sides of the comparison land on the unique fixpoint; BP and SBP run
// their defaults.
func crashExtra(m core.Method) []core.Option {
	if m == core.MethodBP || m == core.MethodSBP {
		return nil
	}
	return []core.Option{core.WithMaxIter(500), core.WithTol(1e-13)}
}

// crashTol is the per-method recovery bound: the kernel methods pin to
// the differential default; BP's message-delta stopping rule leaves
// more summation noise between a recovered layout and a fresh one.
func crashTol(m core.Method) float64 {
	if m == core.MethodBP {
		return 1e-9
	}
	return DefaultTol
}

// checkRecovered opens the durable state, asserts exactly `survive`
// stream batches came back, pins the recovered fixpoint to a fresh
// Prepare on the mirrored prefix, and proves the recovered solver is
// still a durable one: one more batch, a clean close, and a second
// recovery must line up too.
func checkRecovered(t *testing.T, fs *durable.MemFS, base *core.Problem, m core.Method, stream []DynamicBatch, survive int) {
	t.Helper()
	extra := crashExtra(m)
	tol := crashTol(m)
	r, err := core.OpenFS(fs, crashDir, extra...)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	j := r.Stats().Updates
	if j != int64(survive) {
		t.Errorf("recovered Updates = %d, want %d", j, survive)
	}
	if j > int64(len(stream)) {
		t.Fatalf("recovered %d updates, only %d were ever applied", j, len(stream))
	}
	mirror := &core.Problem{Graph: base.Graph.Clone(), Explicit: base.Explicit.Clone(), Ho: base.Ho, EpsilonH: base.EpsilonH}
	for _, b := range stream[:j] {
		b.ApplyMirror(mirror.Graph, mirror.Explicit)
	}
	ctx := context.Background()
	res, err := r.Update(ctx, core.Update{})
	if err != nil && !errors.Is(err, errs.ErrNotConverged) {
		t.Fatalf("recovered solve: %v", err)
	}
	fresh := Variant{Name: "fresh"}
	if d := maxAbsDiff(res.Beliefs, solveOnce(t, mirror, m, fresh, extra)); d > tol {
		t.Errorf("recovered fixpoint diverges from fresh Prepare by %g (tol %g)", d, tol)
	}

	// The recovered solver keeps its durability: commit one more batch,
	// shut down cleanly, and recover again.
	n, k := base.Graph.N(), base.Explicit.K()
	post := DynamicBatch{Add: []graph.Edge{{S: 0, T: n / 2, W: 1}}, Labels: map[int]int{1: 0}}
	res, err = r.Update(ctx, post.ToUpdate(n, k))
	if err != nil && !errors.Is(err, errs.ErrNotConverged) {
		t.Fatalf("post-recovery update: %v", err)
	}
	post.ApplyMirror(mirror.Graph, mirror.Explicit)
	want := solveOnce(t, mirror, m, fresh, extra)
	if d := maxAbsDiff(res.Beliefs, want); d > tol {
		t.Errorf("post-recovery update diverges by %g (tol %g)", d, tol)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := core.OpenFS(fs, crashDir, extra...)
	if err != nil {
		t.Fatalf("second recovery Open: %v", err)
	}
	defer r2.Close()
	// The empty pin solve and the post batch were both logged.
	if got := r2.Stats().Updates; got != j+2 {
		t.Errorf("second recovery Updates = %d, want %d", got, j+2)
	}
	res, err = r2.Update(ctx, core.Update{})
	if err != nil && !errors.Is(err, errs.ErrNotConverged) {
		t.Fatalf("second recovery solve: %v", err)
	}
	if d := maxAbsDiff(res.Beliefs, want); d > tol {
		t.Errorf("second recovery diverges by %g (tol %g)", d, tol)
	}
}
