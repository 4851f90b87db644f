package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/errs"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		Method:     2,
		Ordering:   1,
		N:          4,
		K:          2,
		EpsH:       0.05,
		WALSeq:     7,
		BandBefore: 3,
		BandAfter:  1,
		Perm:       []int{2, 0, 1, 3},
		PartStarts: []int{0, 2, 4},
		RowPtr:     []int{0, 2, 3, 5, 6},
		ColIdx32:   []int32{1, 2, 0, 0, 3, 2},
		Vals:       []float64{1, 2, 1, 2, 0.5, 0.5},
		HO:         []float64{0.1, -0.1, -0.1, 0.1},
		Explicit:   []float64{0.9, -0.9, 0, 0, 0, 0, -0.3, 0.3},
		Last:       []float64{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func checkSnapshotEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Method != want.Method || got.Ordering != want.Ordering ||
		got.N != want.N || got.K != want.K || got.EpsH != want.EpsH ||
		got.WALSeq != want.WALSeq || got.BandBefore != want.BandBefore ||
		got.BandAfter != want.BandAfter || got.GraphOrder != want.GraphOrder {
		t.Fatalf("header mismatch: got %+v", got)
	}
	for name, pair := range map[string][2]any{
		"perm":       {got.Perm, want.Perm},
		"partStarts": {got.PartStarts, want.PartStarts},
		"rowPtr":     {got.RowPtr, want.RowPtr},
		"colIdx32":   {got.ColIdx32, want.ColIdx32},
		"vals":       {got.Vals, want.Vals},
		"ho":         {got.HO, want.HO},
		"explicit":   {got.Explicit, want.Explicit},
		"last":       {got.Last, want.Last},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: got %v want %v", name, pair[0], pair[1])
		}
	}
}

func TestSnapshotRoundtripMemFS(t *testing.T) {
	fs := NewMemFS()
	want := testSnapshot()
	if err := WriteSnapshot(fs, "d", want); err != nil {
		t.Fatal(err)
	}
	if !HasSnapshot(fs, "d") {
		t.Fatal("HasSnapshot = false after write")
	}
	got, err := LoadSnapshot(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	checkSnapshotEqual(t, got, want)
}

func TestSnapshotRoundtripOSWithMmap(t *testing.T) {
	dir := t.TempDir()
	want := testSnapshot()
	want.GraphOrder = true
	want.Last = nil // exercise the absent-section flag too
	if err := WriteSnapshot(OS, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	checkSnapshotEqual(t, got, want)
}

func TestSnapshotWideColIdxRoundtrip(t *testing.T) {
	fs := NewMemFS()
	want := testSnapshot()
	want.ColIdx = []int{1, 2, 0, 0, 3, 2}
	want.ColIdx32 = nil
	if err := WriteSnapshot(fs, "d", want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.ColIdx32 != nil || !reflect.DeepEqual(got.ColIdx, want.ColIdx) {
		t.Fatalf("wide colIdx: got %v / %v", got.ColIdx, got.ColIdx32)
	}
}

func TestSnapshotMissingIsNotExist(t *testing.T) {
	if _, err := LoadSnapshot(NewMemFS(), "d"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if HasSnapshot(NewMemFS(), "d") {
		t.Fatal("HasSnapshot on empty fs")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	path := Join("d", SnapshotFile)
	cases := []struct {
		name string
		off  int64 // byte to flip
	}{
		{"header", 25},         // n field
		{"section-table", 80},  // first table entry
		{"section-body", 4100}, // inside the first aligned section
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			if err := WriteSnapshot(fs, "d", testSnapshot()); err != nil {
				t.Fatal(err)
			}
			if err := fs.FlipBit(path, tc.off, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshot(fs, "d"); !errors.Is(err, errs.ErrCorruptState) {
				t.Fatalf("err = %v, want ErrCorruptState", err)
			}
		})
	}
}

func TestSnapshotTruncatedIsCorrupt(t *testing.T) {
	fs := NewMemFS()
	if err := WriteSnapshot(fs, "d", testSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := Join("d", SnapshotFile)
	size, _ := fs.Size(path)
	// The file is padded out to a page boundary, so cut a whole page
	// to land inside the last section rather than its padding.
	if err := fs.Truncate(path, size-pageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(fs, "d"); !errors.Is(err, errs.ErrCorruptState) {
		t.Fatalf("err = %v, want ErrCorruptState", err)
	}
}

func TestSnapshotFutureVersionRejected(t *testing.T) {
	fs := NewMemFS()
	if err := WriteSnapshot(fs, "d", testSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := Join("d", SnapshotFile)
	// Bump the version field (offset 8) and refresh nothing else: the
	// loader must refuse before checksum verification even matters.
	f, _ := fs.OpenAppend(path)
	if _, err := f.WriteAt([]byte{99, 0, 0, 0}, 8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err := LoadSnapshot(fs, "d")
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want version rejection", err)
	}
}

func TestSnapshotCrashBeforeRenameLeavesOld(t *testing.T) {
	fs := NewMemFS()
	old := testSnapshot()
	if err := WriteSnapshot(fs, "d", old); err != nil {
		t.Fatal(err)
	}
	// Sabotage the next write so the tmp file is torn mid-stream.
	next := testSnapshot()
	next.WALSeq = 99
	// The tmp file is created inside WriteSnapshot; inject by making
	// sync fail instead, which aborts before the rename.
	fs.SetFailSync(true)
	if err := WriteSnapshot(fs, "d", next); !errors.Is(err, ErrInjected) {
		t.Fatalf("sabotaged write err = %v, want ErrInjected", err)
	}
	fs.SetFailSync(false)
	fs.Crash()
	got, err := LoadSnapshot(fs, "d")
	if err != nil {
		t.Fatalf("old snapshot lost: %v", err)
	}
	defer got.Close()
	if got.WALSeq != old.WALSeq {
		t.Fatalf("WALSeq = %d, want the old snapshot's %d", got.WALSeq, old.WALSeq)
	}
}

func TestSnapshotCrashAfterRenameWithoutDirSync(t *testing.T) {
	fs := NewMemFS()
	old := testSnapshot()
	if err := WriteSnapshot(fs, "d", old); err != nil {
		t.Fatal(err)
	}
	next := testSnapshot()
	next.WALSeq = 99
	fs.SetFailSyncDir(true)
	err := WriteSnapshot(fs, "d", next)
	fs.SetFailSyncDir(false)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected from dir sync", err)
	}
	fs.Crash()
	// The rename was never made durable: the old snapshot must be back.
	got, lerr := LoadSnapshot(fs, "d")
	if lerr != nil {
		t.Fatalf("after crash: %v", lerr)
	}
	defer got.Close()
	if got.WALSeq != old.WALSeq {
		t.Fatalf("WALSeq = %d, want rollback to %d", got.WALSeq, old.WALSeq)
	}
}

func record(seq uint64) *Record {
	return &Record{
		Seq:  seq,
		K:    2,
		Adds: []Edge{{S: 1, T: 2, W: 0.5}},
		Dels: []Pair{{S: 0, T: 3}},
		Rows: []BeliefRow{{Node: 1, Row: []float64{0.25, -0.25}}},
	}
}

func replayAll(t *testing.T, fs FS, dir string, after uint64) (uint64, []*Record) {
	t.Helper()
	var recs []*Record
	last, n, err := ReplayWAL(fs, dir, after, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("replayed count %d, callback saw %d", n, len(recs))
	}
	return last, recs
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.Append(record(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	last, recs := replayAll(t, fs, "d", 0)
	if last != 3 || len(recs) != 3 {
		t.Fatalf("replay: last=%d n=%d, want 3/3", last, len(recs))
	}
	if !reflect.DeepEqual(recs[1], record(2)) {
		t.Fatalf("record 2 = %+v", recs[1])
	}
	// Skipping a checkpointed prefix.
	last, recs = replayAll(t, fs, "d", 2)
	if last != 3 || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("after=2 replay: last=%d recs=%v", last, recs)
	}
}

func TestWALSyncPoliciesUnderCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
		want int // records surviving the crash
	}{
		{"always", Policy{Sync: SyncAlways}, 4},
		{"interval-2", Policy{Sync: SyncInterval, Interval: 2}, 4},
		{"interval-3", Policy{Sync: SyncInterval, Interval: 3}, 3},
		{"never", Policy{Sync: SyncNever}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			w, err := OpenWAL(fs, "d", tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= 4; seq++ {
				if err := w.Append(record(seq)); err != nil {
					t.Fatal(err)
				}
			}
			// No Close: the process dies here.
			fs.Crash()
			last, recs := replayAll(t, fs, "d", 0)
			if len(recs) != tc.want || last != uint64(tc.want) {
				t.Fatalf("survived %d records (last=%d), want %d", len(recs), last, tc.want)
			}
		})
	}
}

func TestWALTornAppendRolledBackAndAppendable(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(1)); err != nil {
		t.Fatal(err)
	}
	// Tear the second append mid-frame.
	path := Join("d", WALFile)
	size, _ := fs.Size(path)
	if err := fs.FailWritesAfter(path, size+10); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append err = %v", err)
	}
	fs.ClearWriteFault(path)
	// Append rolls the torn frame back immediately: the file is at the
	// last acknowledged boundary without any replay in between.
	if got, _ := fs.Size(path); got != size {
		t.Fatalf("file size %d after failed append, want rollback to %d", got, size)
	}
	// Continued operation on the SAME handle: the committer retries the
	// unacknowledged batch at the same seq, and the new record must be
	// replayable (the old code let it land after the torn frame, where
	// replay silently discarded it).
	if err := w.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	last, recs := replayAll(t, fs, "d", 0)
	if last != 3 || len(recs) != 3 {
		t.Fatalf("post-tear replay: last=%d n=%d, want 3/3", last, len(recs))
	}
}

func TestWALFailedSyncRollsBackUnacknowledgedFrame(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(1)); err != nil {
		t.Fatal(err)
	}
	path := Join("d", WALFile)
	size, _ := fs.Size(path)
	// The frame lands in full but the fsync fails: under SyncAlways the
	// record was never acknowledged, so it must not survive on disk —
	// otherwise the retried batch duplicates its seq and replay breaks.
	fs.SetFailSync(true)
	if err := w.Append(record(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed-sync append err = %v", err)
	}
	fs.SetFailSync(false)
	if got, _ := fs.Size(path); got != size {
		t.Fatalf("file size %d after failed sync, want rollback to %d", got, size)
	}
	if err := w.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	last, recs := replayAll(t, fs, "d", 0)
	if last != 3 || len(recs) != 3 {
		t.Fatalf("post-sync-failure replay: last=%d n=%d, want 3/3", last, len(recs))
	}
}

func TestWALOversizedRecordRefused(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(1)); err != nil {
		t.Fatal(err)
	}
	path := Join("d", WALFile)
	size, _ := fs.Size(path)
	// One belief row at an absurd k pushes the encoding past the frame
	// limit; the refusal happens before encode, so nothing is allocated
	// or written and the log stays healthy.
	big := &Record{Seq: 2, K: 1 << 27, Rows: []BeliefRow{{Node: 0}}}
	if err := w.Append(big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append err = %v, want ErrRecordTooLarge", err)
	}
	if got, _ := fs.Size(path); got != size {
		t.Fatalf("file size %d after refused append, want %d", got, size)
	}
	if err := w.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	last, recs := replayAll(t, fs, "d", 0)
	if last != 2 || len(recs) != 2 {
		t.Fatalf("post-refusal replay: last=%d n=%d, want 2/2", last, len(recs))
	}
}

// faultFS overlays failure injection for the FS methods MemFS has no
// knobs for (rotation and rollback paths).
type faultFS struct {
	FS
	failOpenAppend bool
	failTruncate   bool
}

func (f *faultFS) OpenAppend(path string) (File, error) {
	if f.failOpenAppend {
		return nil, ErrInjected
	}
	return f.FS.OpenAppend(path)
}

func (f *faultFS) Truncate(path string, size int64) error {
	if f.failTruncate {
		return ErrInjected
	}
	return f.FS.Truncate(path, size)
}

func TestWALBrokenWhenRollbackTruncateFails(t *testing.T) {
	mem := NewMemFS()
	ffs := &faultFS{FS: mem}
	w, err := OpenWAL(ffs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(1)); err != nil {
		t.Fatal(err)
	}
	path := Join("d", WALFile)
	size, _ := mem.Size(path)
	if err := mem.FailWritesAfter(path, size+10); err != nil {
		t.Fatal(err)
	}
	ffs.failTruncate = true
	if err := w.Append(record(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append err = %v", err)
	}
	mem.ClearWriteFault(path)
	ffs.failTruncate = false
	// The torn frame could not be cut away: the WAL must refuse further
	// appends rather than acknowledge records replay would discard.
	if err := w.Append(record(2)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append on broken wal err = %v, want ErrWALBroken", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("sync on broken wal err = %v, want ErrWALBroken", err)
	}
	w.Close()
	// Recovery still works: replay truncates the torn tail as usual.
	last, recs := replayAll(t, mem, "d", 0)
	if last != 1 || len(recs) != 1 {
		t.Fatalf("replay: last=%d n=%d, want 1/1", last, len(recs))
	}
}

func TestWALRotateReopenFailureBreaksLogWithoutPanic(t *testing.T) {
	mem := NewMemFS()
	ffs := &faultFS{FS: mem}
	w, err := OpenWAL(ffs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(1)); err != nil {
		t.Fatal(err)
	}
	ffs.failOpenAppend = true
	if err := w.Rotate(); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("rotate err = %v, want ErrWALBroken", err)
	}
	ffs.failOpenAppend = false
	// The old code left w.f nil here and the next Append panicked.
	if err := w.Append(record(2)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append after failed rotate err = %v, want ErrWALBroken", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRotateTruncateFailureIsNonFatal(t *testing.T) {
	mem := NewMemFS()
	ffs := &faultFS{FS: mem}
	w, err := OpenWAL(ffs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := w.Append(record(seq)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.failTruncate = true
	err = w.Rotate()
	ffs.failTruncate = false
	if !errors.Is(err, ErrInjected) || errors.Is(err, ErrWALBroken) {
		t.Fatalf("rotate err = %v, want non-fatal ErrInjected", err)
	}
	// The stale records remain but are covered by the checkpoint; the
	// log keeps accepting appends after them.
	if err := w.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	last, recs := replayAll(t, mem, "d", 2)
	if last != 3 || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("post-rotate-failure replay: last=%d recs=%v", last, recs)
	}
}

func TestWALMidLogCorruptionStopsReplay(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{0}
	path := Join("d", WALFile)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.Append(record(seq)); err != nil {
			t.Fatal(err)
		}
		s, _ := fs.Size(path)
		sizes = append(sizes, s)
	}
	w.Close()
	// Flip a payload bit inside record 2.
	if err := fs.FlipBit(path, sizes[1]+frameHeader+4, 0); err != nil {
		t.Fatal(err)
	}
	last, recs := replayAll(t, fs, "d", 0)
	if last != 1 || len(recs) != 1 {
		t.Fatalf("replay past corruption: last=%d n=%d, want 1/1", last, len(recs))
	}
	if got, _ := fs.Size(path); got != sizes[1] {
		t.Fatalf("log not truncated at corruption: %d, want %d", got, sizes[1])
	}
}

func TestWALRotateEmptiesLog(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := w.Append(record(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Appends continue on the rotated log.
	if err := w.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	last, recs := replayAll(t, fs, "d", 2)
	if last != 3 || len(recs) != 1 {
		t.Fatalf("post-rotate replay: last=%d n=%d", last, len(recs))
	}
}

func TestWALSequenceBreakStopsReplay(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(record(1))
	w.Append(record(5)) // a gap the committer would never produce
	w.Close()
	last, recs := replayAll(t, fs, "d", 0)
	if last != 1 || len(recs) != 1 {
		t.Fatalf("replay across seq gap: last=%d n=%d", last, len(recs))
	}
}

func TestRecordEncodeDecodeEmpty(t *testing.T) {
	r := &Record{Seq: 12, K: 3}
	if !r.Empty() {
		t.Fatal("zero-delta record not Empty")
	}
	got, err := decodeRecord(r.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 12 || got.K != 3 || !got.Empty() {
		t.Fatalf("roundtrip = %+v", got)
	}
}

func TestMemFSDropSyncLosesData(t *testing.T) {
	fs := NewMemFS()
	fs.SetDropSync(true)
	w, err := OpenWAL(fs, "d", Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record(1)); err != nil {
		t.Fatal(err) // the lying disk reports success
	}
	fs.Crash()
	last, recs := replayAll(t, fs, "d", 0)
	if last != 0 || len(recs) != 0 {
		t.Fatalf("dropped-sync data survived crash: last=%d n=%d", last, len(recs))
	}
}

// TestMemFSWriteBeyondEndZeroFills: a write past the end of a file that
// Truncate or Crash shortened leaves zeros in the gap, not the bytes
// the file held there before (they may still sit in its capacity).
func TestMemFSWriteBeyondEndZeroFills(t *testing.T) {
	for name, shorten := range map[string]func(fs *MemFS) error{
		"truncate": func(fs *MemFS) error { return fs.Truncate("f", 2) },
		"crash":    func(fs *MemFS) error { fs.Crash(); return nil },
	} {
		fs := NewMemFS()
		f, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir("."); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
		if err := shorten(fs); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{9}, 6); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make([]byte, 7)
		if n, err := f.ReadAt(got, 0); n != 7 || (err != nil && err != io.EOF) {
			t.Fatalf("%s: read %d bytes: %v", name, n, err)
		}
		if want := []byte{1, 2, 0, 0, 0, 0, 9}; !bytes.Equal(got, want) {
			t.Errorf("%s: file reads %v after the write past its end, want %v", name, got, want)
		}
	}
}
