package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/order"
)

// The tests below run on the power-10 Kronecker graph (59,049 nodes),
// the serving-scale table: its int32 row blocks alias the layout CSR's
// arrays, and the epoch-0 table keeps no reference to the CSR itself.

// kron10Opts pins the schedule of the power-10 tests to a tight
// convergence so that served, recovered and fresh fixpoints compare
// at 1e-12.
var kron10Opts = []Option{WithMaxIter(400), WithTol(1e-13)}

// readSnapshot returns the bytes of the snapshot file in dir.
func readSnapshot(t *testing.T, fs *durable.MemFS, dir string) []byte {
	t.Helper()
	path := durable.Join(dir, durable.SnapshotFile)
	size, err := fs.Size(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCompactLayoutCheckpoint: the Prepare-time checkpoint of a
// compact-only table, written from the table's whole block, is
// byte-identical to the image written from the flat layout CSR (the
// digest was recorded before the table stopped referencing that CSR),
// and Open then Update{} reproduces the served fixpoint.
func TestCompactLayoutCheckpoint(t *testing.T) {
	const wantDigest = "ac1ea7e0190228fbcf416fa788d43addfcb9de2c42f9500794d113c086b08991"
	p := kronProblem(t, 10, 3)
	fs := durable.NewMemFS()
	s, err := Prepare(p, MethodLinBP, append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways})}, kron10Opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(readSnapshot(t, fs, "st"))
	if got := hex.EncodeToString(sum[:]); got != wantDigest {
		t.Errorf("initial checkpoint sha256 = %s, want %s", got, wantDigest)
	}
	ctx := context.Background()
	served, err := s.Update(ctx, Update{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFS(fs, "st", kron10Opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recovered, err := r.Update(ctx, Update{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(recovered.Beliefs, served.Beliefs); d > 1e-12 {
		t.Errorf("recovered fixpoint differs from the served one by %g", d)
	}
}

// TestCompactLayoutForcedRelayout: a forced compaction (a relayout on every
// topology update) of a compact-only table still matches a fresh
// Prepare of the mirrored problem.
func TestCompactLayoutForcedRelayout(t *testing.T) {
	opts := append([]Option{WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12})}, kron10Opts...)
	p := kronProblem(t, 10, 3)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	s, err := Prepare(p, MethodLinBP, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := Update{AddEdges: absentEdges(p.Graph, 8, 5)}
	res, err := s.Update(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	applyMirror(mirror, u)
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
	want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, kron10Opts...)
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("compacted epoch diverges from a fresh Prepare by %g", d)
	}
}

// TestCompactLayoutPartDiag: the partition diagnostics built by walking
// a compact-only table, and patched per commit, equal
// order.StatsForStarts on the flattened table.
func TestCompactLayoutPartDiag(t *testing.T) {
	p := kronProblem(t, 10, 3)
	s, err := Prepare(p, MethodLinBP, append([]Option{WithPartitions(3)}, kron10Opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := s.(*dynSolver)
	ctx := context.Background()
	for _, u := range []Update{{}, {AddEdges: absentEdges(p.Graph, 16, 9)}} {
		if _, err := s.Update(ctx, u); err != nil {
			t.Fatal(err)
		}
		want := order.StatsForStarts(d.rows.Flatten(), d.partStarts)
		if !slices.Equal(d.part.blockNNZ, want.BlockNNZ) || d.part.cut != want.CutEdges || d.part.total != d.rows.NNZ() {
			t.Errorf("epoch %d: table-built diagnostics nnz %v cut %d total %d, want nnz %v cut %d total %d",
				d.epochN.Load(), d.part.blockNNZ, d.part.cut, d.part.total, want.BlockNNZ, want.CutEdges, d.rows.NNZ())
		}
		if st := s.Stats(); st.CutEdges != want.CutEdges || st.Imbalance != want.Imbalance {
			t.Errorf("epoch %d: Stats cut %d imbalance %v, want %d %v", st.Epoch, st.CutEdges, st.Imbalance, want.CutEdges, want.Imbalance)
		}
	}
}
