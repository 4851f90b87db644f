// The versioned snapshot format. One file, one header page, then
// page-aligned sections, each independently CRC-32C checksummed:
//
//	offset 0:  magic "LSBPSNP1" (8 bytes)
//	        8:  format version  u32
//	       12:  method          u32  (core.Method value)
//	       16:  flags           u32  (see flag* constants)
//	       20:  ordering        u32  (order.Strategy code)
//	       24:  n               u64
//	       32:  k               u32
//	       36:  section count   u32
//	       40:  epsilon_H       f64
//	       48:  wal sequence    u64  (updates already folded in)
//	       56:  bandwidth before u64
//	       64:  bandwidth after  u64
//	       72:  section table: count x 32 bytes
//	            {kind u32, pad u32, offset u64, length u64, crc u32, pad u32}
//	      ...:  header CRC-32C  u32  (over everything above it)
//
// Sections start at 4096-byte-aligned offsets so an mmap'd load can
// alias them at natural alignment. The header is patched in last
// (WriteAt offset 0) after every section byte is on its way to disk,
// then the file is synced, renamed over the final name, and the
// directory synced — the standard atomic-publish dance.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/errs"
)

// File names inside a durability directory.
//
//lsbp:format
const (
	SnapshotFile = "snapshot.lsbp"
	snapshotTmp  = "snapshot.lsbp.tmp"
	WALFile      = "updates.wal"
)

// FormatVersion is the current snapshot format version. Readers
// reject other versions with an actionable error rather than
// misparsing.
const FormatVersion = 1

// formatLock pins the //lsbp:format declarations of this package to
// FormatVersion: the durable-format analyzer recomputes the hash over
// those declarations and fails the build if they changed without a
// version bump and a re-lock. Run make lint for the expected value.
const formatLock = "v1:dfaaa120c3d55d35"

//lsbp:format
const (
	snapMagic  = "LSBPSNP1"
	pageSize   = 4096
	headerBase = 72 // fixed fields before the section table
	sectEntry  = 32
	// maxK bounds the class count a header may claim; anything larger
	// is corruption (the paper's workloads top out in the tens).
	maxK = 1 << 16
)

// Flags (header offset 16).
//
//lsbp:format
const (
	flagWideColIdx = 1 << 0 // section kinds: colIdx stored as i64, not i32
	flagHasLast    = 1 << 1 // warm-start fixpoint section present
	flagGraphOrder = 1 << 2 // CSR is caller-order adjacency (BP/SBP), not layout-order
	flagHasPerm    = 1 << 3
	flagHasParts   = 1 << 4
)

// Section kinds.
//
//lsbp:format
const (
	sectPerm       = 1 // n x i64 layout permutation
	sectPartStarts = 2 // (P+1) x i64 partition boundaries
	sectRowPtr     = 3 // (n+1) x i64 CSR row pointers
	sectColIdx     = 4 // nnz x i32 (or i64 when flagWideColIdx)
	sectVals       = 5 // nnz x f64
	sectHO         = 6 // k x k f64 coupling matrix (row-major)
	sectExplicit   = 7 // n x k f64 explicit-belief residuals (row-major)
	sectLast       = 8 // n x k f64 last fixpoint (row-major)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the in-memory image of a snapshot file: everything the
// core package needs to reconstitute a prepared solver without
// re-running the layout optimizer or the partitioner. Loaded slices
// for the CSR triplet may alias a read-only mmap — treat them as
// immutable; the mutable matrices (Explicit, Last, HO) are always
// private copies.
type Snapshot struct {
	Method     uint32
	Ordering   uint32 // order.Strategy code
	N, K       int
	EpsH       float64
	WALSeq     uint64 // updates already reflected in this snapshot
	BandBefore int
	BandAfter  int
	// GraphOrder marks the CSR as the caller-order adjacency rather than
	// the layout-ordered matrix. BP and SBP checkpoints were written so
	// until those methods served from the layout table; readers still
	// accept such images.
	GraphOrder bool

	Perm       []int // nil when no reordering was applied
	PartStarts []int // nil for non-partitioned methods
	RowPtr     []int
	ColIdx32   []int32 // compact index; nil when ColIdx is set
	ColIdx     []int   // wide index; nil when ColIdx32 is set
	Vals       []float64
	HO         []float64 // k*k row-major
	Explicit   []float64 // n*k row-major
	Last       []float64 // n*k row-major, nil if absent

	release func()
}

// Close releases the backing mapping, if any. The snapshot's aliased
// slices must not be used afterwards.
func (s *Snapshot) Close() {
	if s.release != nil {
		s.release()
		s.release = nil
	}
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("durable: "+format+": %w", append(args, errs.ErrCorruptState)...)
}

// HasSnapshot reports whether dir holds a snapshot file (readable or
// not — existence only).
func HasSnapshot(fsys FS, dir string) bool {
	_, err := fsys.Size(Join(dir, SnapshotFile))
	return err == nil
}

type section struct {
	kind uint32
	data []byte
}

// sumWriter is the checksumming section writer: it folds every byte it
// forwards to the snapshot file into a running CRC-32C, so the section
// table records checksums of the exact bytes sent to the file — a
// payload write that bypasses it cannot get a checksum at all.
type sumWriter struct {
	f   File
	crc uint32
}

// Write forwards to the underlying file, checksumming what was
// actually accepted.
//
//lsbp:rawio
func (sw *sumWriter) Write(p []byte) (int, error) {
	n, err := sw.f.Write(p)
	sw.crc = crc32.Update(sw.crc, castagnoli, p[:n])
	return n, err
}

// reset starts a fresh checksum domain (one per section).
func (sw *sumWriter) reset() { sw.crc = 0 }

// sum returns the CRC-32C of the bytes written since the last reset.
func (sw *sumWriter) sum() uint32 { return sw.crc }

func alignPage(off int64) int64 { return (off + pageSize - 1) &^ (pageSize - 1) }

// WriteSnapshot publishes s atomically into dir: temp file, streamed
// checksummed sections, header patch, fsync, rename, directory sync.
// On any error the previous snapshot (if one exists) is untouched.
func WriteSnapshot(fsys FS, dir string, s *Snapshot) (err error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("durable: snapshot dir: %w", err)
	}
	secs := buildSections(s)
	flags := uint32(0)
	if s.ColIdx != nil {
		flags |= flagWideColIdx
	}
	if s.Last != nil {
		flags |= flagHasLast
	}
	if s.GraphOrder {
		flags |= flagGraphOrder
	}
	if s.Perm != nil {
		flags |= flagHasPerm
	}
	if s.PartStarts != nil {
		flags |= flagHasParts
	}

	headerLen := headerBase + sectEntry*len(secs) + 4
	header := make([]byte, headerLen)
	copy(header, snapMagic)
	le.PutUint32(header[8:], FormatVersion)
	le.PutUint32(header[12:], s.Method)
	le.PutUint32(header[16:], flags)
	le.PutUint32(header[20:], s.Ordering)
	le.PutUint64(header[24:], uint64(s.N))
	le.PutUint32(header[32:], uint32(s.K))
	le.PutUint32(header[36:], uint32(len(secs)))
	le.PutUint64(header[40:], math.Float64bits(s.EpsH))
	le.PutUint64(header[48:], s.WALSeq)
	le.PutUint64(header[56:], uint64(s.BandBefore))
	le.PutUint64(header[64:], uint64(s.BandAfter))

	tmp := Join(dir, snapshotTmp)
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: snapshot create: %w", err)
	}
	defer func() {
		if f != nil {
			f.Close()
			fsys.Remove(tmp)
		}
	}()

	// Stream the sections at aligned offsets through the checksumming
	// writer, recording the table as we go; the header stays zeroed on
	// disk until everything else is written, so a crash mid-write can
	// never look like a snapshot.
	sw := &sumWriter{f: f}
	off := alignPage(int64(headerLen))
	if err := writeZeros(sw, off); err != nil {
		return fmt.Errorf("durable: snapshot pad: %w", err)
	}
	for i, sec := range secs {
		entry := header[headerBase+sectEntry*i:]
		le.PutUint32(entry, sec.kind)
		le.PutUint64(entry[8:], uint64(off))
		le.PutUint64(entry[16:], uint64(len(sec.data)))
		sw.reset()
		if _, err := sw.Write(sec.data); err != nil {
			return fmt.Errorf("durable: snapshot section %d: %w", sec.kind, err)
		}
		le.PutUint32(entry[24:], sw.sum())
		off += int64(len(sec.data))
		next := alignPage(off)
		if err := writeZeros(sw, next-off); err != nil {
			return fmt.Errorf("durable: snapshot pad: %w", err)
		}
		off = next
	}
	le.PutUint32(header[headerLen-4:], crc32.Checksum(header[:headerLen-4], castagnoli))
	if err := patchHeader(f, header); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		f = nil
		fsys.Remove(tmp)
		return fmt.Errorf("durable: snapshot close: %w", err)
	}
	f = nil
	if err := fsys.Rename(tmp, Join(dir, SnapshotFile)); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: snapshot publish: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: snapshot dir sync: %w", err)
	}
	return nil
}

func buildSections(s *Snapshot) []section {
	var secs []section
	if s.Perm != nil {
		secs = append(secs, section{sectPerm, intsBytes(s.Perm)})
	}
	if s.PartStarts != nil {
		secs = append(secs, section{sectPartStarts, intsBytes(s.PartStarts)})
	}
	secs = append(secs, section{sectRowPtr, intsBytes(s.RowPtr)})
	if s.ColIdx != nil {
		secs = append(secs, section{sectColIdx, intsBytes(s.ColIdx)})
	} else {
		secs = append(secs, section{sectColIdx, int32sBytes(s.ColIdx32)})
	}
	secs = append(secs,
		section{sectVals, floatsBytes(s.Vals)},
		section{sectHO, floatsBytes(s.HO)},
		section{sectExplicit, floatsBytes(s.Explicit)})
	if s.Last != nil {
		secs = append(secs, section{sectLast, floatsBytes(s.Last)})
	}
	return secs
}

// patchHeader publishes the completed header (its trailing CRC-32C
// already stamped) under the section bytes at offset 0 — the last
// write before the sync/rename publish. It is the one deliberate
// bypass of the section writer: the header checksums itself.
//
//lsbp:rawio
func patchHeader(f File, header []byte) error {
	if _, err := f.WriteAt(header, 0); err != nil {
		return fmt.Errorf("durable: snapshot header: %w", err)
	}
	return nil
}

// writeZeros pads with zero bytes through the section writer; padding
// precedes each reset, so it never lands in a section's checksum.
func writeZeros(w *sumWriter, n int64) error {
	if n <= 0 {
		return nil
	}
	var pad [pageSize]byte
	for n > 0 {
		c := n
		if c > pageSize {
			c = pageSize
		}
		if _, err := w.Write(pad[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// LoadSnapshot maps (or reads) dir's snapshot and verifies every
// checksum plus the structural size invariants. Checksum and
// structure failures wrap errs.ErrCorruptState; a missing file
// surfaces os.ErrNotExist. The caller owns the returned Snapshot's
// Close.
func LoadSnapshot(fsys FS, dir string) (*Snapshot, error) {
	path := Join(dir, SnapshotFile)
	data, release, err := slurp(fsys, path)
	if err != nil {
		return nil, err
	}
	s, err := parseSnapshot(data)
	if err != nil {
		release()
		return nil, err
	}
	s.release = release
	return s, nil
}

// slurp returns the full file image: an mmap when the FS supports it
// (the OS FS on unix), a read into RAM otherwise.
func slurp(fsys FS, path string) (data []byte, release func(), err error) {
	if m, ok := fsys.(interface {
		Mmap(path string) ([]byte, func(), error)
	}); ok {
		if data, release, err = m.Mmap(path); err == nil {
			return data, release, nil
		}
		// Fall through to the portable read on any mmap failure.
	}
	size, err := fsys.Size(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	data = make([]byte, size)
	if _, err := readFullAt(f, data, 0); err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot read: %w", err)
	}
	return data, func() {}, nil
}

func readFullAt(r io.ReaderAt, p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.ReadAt(p[total:], off+int64(total))
		total += n
		if err != nil {
			if errors.Is(err, io.EOF) && total == len(p) {
				return total, nil
			}
			return total, err
		}
	}
	return total, nil
}

func parseSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < headerBase+4 {
		return nil, corrupt("snapshot file truncated at %d bytes", len(data))
	}
	if string(data[:8]) != snapMagic {
		return nil, corrupt("snapshot magic mismatch")
	}
	if v := le.Uint32(data[8:]); v != FormatVersion {
		return nil, fmt.Errorf("durable: snapshot format version %d, this build reads %d: %w", v, FormatVersion, errs.ErrCorruptState)
	}
	count := int(le.Uint32(data[36:]))
	headerLen := headerBase + sectEntry*count + 4
	if count < 0 || count > 16 || len(data) < headerLen {
		return nil, corrupt("snapshot section count %d invalid for %d-byte file", count, len(data))
	}
	if crc32.Checksum(data[:headerLen-4], castagnoli) != le.Uint32(data[headerLen-4:]) {
		return nil, corrupt("snapshot header checksum mismatch")
	}

	s := &Snapshot{
		Method:     le.Uint32(data[12:]),
		Ordering:   le.Uint32(data[20:]),
		N:          int(le.Uint64(data[24:])),
		K:          int(le.Uint32(data[32:])),
		EpsH:       math.Float64frombits(le.Uint64(data[40:])),
		WALSeq:     le.Uint64(data[48:]),
		BandBefore: int(le.Uint64(data[56:])),
		BandAfter:  int(le.Uint64(data[64:])),
	}
	flags := le.Uint32(data[16:])
	s.GraphOrder = flags&flagGraphOrder != 0
	if s.N < 0 || s.K <= 0 || s.K > maxK {
		return nil, corrupt("snapshot claims n=%d k=%d", s.N, s.K)
	}

	sections := make(map[uint32][]byte, count)
	for i := 0; i < count; i++ {
		entry := data[headerBase+sectEntry*i:]
		kind := le.Uint32(entry)
		off := le.Uint64(entry[8:])
		length := le.Uint64(entry[16:])
		crc := le.Uint32(entry[24:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, corrupt("section %d spans [%d, +%d) outside %d-byte file", kind, off, length, len(data))
		}
		body := data[off : off+length]
		if crc32.Checksum(body, castagnoli) != crc {
			return nil, corrupt("section %d checksum mismatch", kind)
		}
		if _, dup := sections[kind]; dup {
			return nil, corrupt("duplicate section %d", kind)
		}
		sections[kind] = body
	}

	// Materialize with size validation. The big read-only arrays alias
	// the image; the mutable ones are copied out of it.
	want := func(kind uint32, name string, bytes int) ([]byte, error) {
		b, ok := sections[kind]
		if !ok {
			return nil, corrupt("snapshot missing %s section", name)
		}
		if len(b) != bytes {
			return nil, corrupt("%s section is %d bytes, want %d", name, len(b), bytes)
		}
		return b, nil
	}
	var b []byte
	var err error
	if flags&flagHasPerm != 0 {
		if b, err = want(sectPerm, "permutation", s.N*8); err != nil {
			return nil, err
		}
		s.Perm = bytesInts(b, false)
	}
	if flags&flagHasParts != 0 {
		b, ok := sections[sectPartStarts]
		if !ok || len(b)%8 != 0 || len(b) < 16 {
			return nil, corrupt("partition section malformed")
		}
		s.PartStarts = bytesInts(b, false)
	}
	if b, err = want(sectRowPtr, "rowPtr", (s.N+1)*8); err != nil {
		return nil, err
	}
	s.RowPtr = bytesInts(b, true)
	nnz := s.RowPtr[s.N]
	if nnz < 0 {
		return nil, corrupt("rowPtr tail %d negative", nnz)
	}
	if flags&flagWideColIdx != 0 {
		if b, err = want(sectColIdx, "colIdx", nnz*8); err != nil {
			return nil, err
		}
		s.ColIdx = bytesInts(b, true)
	} else {
		if b, err = want(sectColIdx, "colIdx", nnz*4); err != nil {
			return nil, err
		}
		s.ColIdx32 = bytesInt32s(b, true)
	}
	if b, err = want(sectVals, "values", nnz*8); err != nil {
		return nil, err
	}
	s.Vals = bytesFloats(b, true)
	if b, err = want(sectHO, "coupling", s.K*s.K*8); err != nil {
		return nil, err
	}
	s.HO = bytesFloats(b, false)
	if b, err = want(sectExplicit, "explicit beliefs", s.N*s.K*8); err != nil {
		return nil, err
	}
	s.Explicit = bytesFloats(b, false)
	if flags&flagHasLast != 0 {
		if b, err = want(sectLast, "last fixpoint", s.N*s.K*8); err != nil {
			return nil, err
		}
		s.Last = bytesFloats(b, false)
	}
	return s, nil
}
