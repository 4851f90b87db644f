// In-memory filesystem with programmable faults — the substrate of
// the crash-recovery test matrix. It models the durability semantics
// the durable plane relies on, no more: data written but not synced
// is lost on Crash, namespace changes (creations, renames, removals)
// not followed by SyncDir are rolled back, and the fault knobs
// produce exactly the failure shapes real disks produce (short
// writes, silent sync loss, bit rot).
package durable

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// memFile is the inode: handles and the namespace both point at it,
// so a rename (or its crash rollback) never invalidates an open
// handle, matching POSIX.
type memFile struct {
	data   []byte
	synced int   // durable prefix: Crash truncates data to this
	fail   int64 // short-write offset; <0 disables
}

type nsOp struct {
	kind     int // 0 create, 1 rename, 2 remove
	name     string
	other    string   // rename source
	prev     *memFile // displaced inode (rename/create target, removed file)
	hadPrev  bool
	prevFile *memFile // rename: the moved inode (to put back under other)
}

// MemFS is a single-directory in-memory FS with crash simulation.
// Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	// journal holds the inverse of every namespace change since the
	// last SyncDir; Crash applies it in reverse.
	journal []nsOp

	dropSync    bool // Sync succeeds but persists nothing
	failSync    bool // Sync returns ErrInjected
	failSyncDir bool // SyncDir returns ErrInjected
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

type memHandle struct {
	fs     *MemFS
	f      *memFile
	pos    int64
	rdonly bool
	closed bool
}

func (m *MemFS) lookup(path string) (*memFile, bool) {
	f, ok := m.files[path]
	return f, ok
}

func (m *MemFS) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, had := m.files[path]
	f := &memFile{fail: -1}
	m.files[path] = f
	m.journal = append(m.journal, nsOp{kind: 0, name: path, prev: prev, hadPrev: had})
	return &memHandle{fs: m, f: f}, nil
}

func (m *MemFS) Open(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return &memHandle{fs: m, f: f, rdonly: true}, nil
}

func (m *MemFS) OpenAppend(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		f = &memFile{fail: -1}
		m.files[path] = f
		m.journal = append(m.journal, nsOp{kind: 0, name: path})
	}
	return &memHandle{fs: m, f: f, pos: int64(len(f.data))}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(oldpath)
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	prev, had := m.files[newpath]
	m.files[newpath] = f
	delete(m.files, oldpath)
	m.journal = append(m.journal, nsOp{kind: 1, name: newpath, other: oldpath, prev: prev, hadPrev: had, prevFile: f})
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	delete(m.files, path)
	m.journal = append(m.journal, nsOp{kind: 2, name: path, prev: f, hadPrev: true})
	return nil
}

func (m *MemFS) Size(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: path, Err: os.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

// Truncate is modeled as immediately durable (it is a metadata
// operation the plane only uses for WAL rotation, where losing it is
// harmless: stale records replay as already-applied and are skipped).
func (m *MemFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		return &os.PathError{Op: "truncate", Path: path, Err: os.ErrNotExist}
	}
	if size < 0 || size > int64(len(f.data)) {
		if size < 0 {
			return fmt.Errorf("durable: memfs truncate to negative size %d: %w", size, os.ErrInvalid)
		}
		return nil
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failSyncDir {
		return fmt.Errorf("durable: memfs syncdir: %w", ErrInjected)
	}
	m.journal = nil
	return nil
}

func (m *MemFS) MkdirAll(string) error { return nil }

// --- fault knobs ---

// FailWritesAfter arranges for writes to path to be cut short once
// the file reaches off bytes: the portion below off lands, the rest
// is dropped and the write returns ErrInjected. This is the torn-
// write primitive.
func (m *MemFS) FailWritesAfter(path string, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		// Pre-register: the file may not exist yet (e.g. the snapshot
		// temp file). Create an empty inode the next Create/OpenAppend
		// will replace — instead, remember by creating lazily is
		// complex; require existence for determinism.
		return &os.PathError{Op: "failwrites", Path: path, Err: os.ErrNotExist}
	}
	f.fail = off
	return nil
}

// ClearWriteFault removes a FailWritesAfter arrangement from path.
func (m *MemFS) ClearWriteFault(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.lookup(path); ok {
		f.fail = -1
	}
}

// FlipBit flips one bit of the stored byte at byteOff in path —
// bit-rot injection. It corrupts the durable image directly (synced
// watermark is untouched).
func (m *MemFS) FlipBit(path string, byteOff int64, bit uint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.lookup(path)
	if !ok {
		return &os.PathError{Op: "flipbit", Path: path, Err: os.ErrNotExist}
	}
	if byteOff < 0 || byteOff >= int64(len(f.data)) {
		return fmt.Errorf("durable: memfs flipbit offset %d outside %d-byte file: %w", byteOff, len(f.data), os.ErrInvalid)
	}
	f.data[byteOff] ^= 1 << (bit % 8)
	return nil
}

// SetDropSync makes every Sync report success while persisting
// nothing — the lying-disk scenario. Data written under a dropped
// sync is lost at the next Crash.
func (m *MemFS) SetDropSync(v bool) {
	m.mu.Lock()
	m.dropSync = v
	m.mu.Unlock()
}

// SetFailSync makes every Sync return ErrInjected.
func (m *MemFS) SetFailSync(v bool) {
	m.mu.Lock()
	m.failSync = v
	m.mu.Unlock()
}

// SetFailSyncDir makes every SyncDir return ErrInjected.
func (m *MemFS) SetFailSyncDir(v bool) {
	m.mu.Lock()
	m.failSyncDir = v
	m.mu.Unlock()
}

// Crash simulates power loss: every file reverts to its synced
// prefix, and namespace changes since the last SyncDir are rolled
// back in reverse order. Open handles remain usable (tests discard
// them to simulate process death; nothing enforces that).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.journal) - 1; i >= 0; i-- {
		op := m.journal[i]
		switch op.kind {
		case 0: // create: drop the entry, restore what it displaced
			if op.hadPrev {
				m.files[op.name] = op.prev
			} else {
				delete(m.files, op.name)
			}
		case 1: // rename: move the inode back, restore the old target
			m.files[op.other] = op.prevFile
			if op.hadPrev {
				m.files[op.name] = op.prev
			} else {
				delete(m.files, op.name)
			}
		case 2: // remove: resurrect
			m.files[op.name] = op.prev
		}
	}
	m.journal = nil
	for _, f := range m.files {
		if f.synced < len(f.data) {
			f.data = f.data[:f.synced]
		}
	}
}

// --- handle ---

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n, err := h.writeAtLocked(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.writeAtLocked(p, off)
}

func (h *memHandle) writeAtLocked(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, os.ErrClosed
	}
	if h.rdonly {
		return 0, fmt.Errorf("durable: memfs write on read-only handle: %w", os.ErrPermission)
	}
	f := h.f
	end := off + int64(len(p))
	if f.fail >= 0 && end > f.fail {
		// Short write: land what fits below the fault line.
		keep := f.fail - off
		if keep < 0 {
			keep = 0
		}
		n := h.writeLocked(p[:keep], off)
		return n, fmt.Errorf("durable: memfs short write at %d: %w", f.fail, ErrInjected)
	}
	return h.writeLocked(p, off), nil
}

// writeLocked lands p at off, growing the file with amortized
// capacity (a checkpoint's many small appends would otherwise copy the
// whole file each time). The bytes between the old end and off read as
// zeros: Truncate and Crash shorten data in place, so the capacity past
// the end may hold stale bytes.
func (h *memHandle) writeLocked(p []byte, off int64) int {
	f := h.f
	end := int(off) + len(p)
	if old := len(f.data); old < end {
		f.data = slices.Grow(f.data, end-old)[:end]
		if int(off) > old {
			clear(f.data[old:off])
		}
	}
	copy(f.data[off:end], p)
	return len(p)
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	f := h.f
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if h.fs.failSync {
		return fmt.Errorf("durable: memfs sync: %w", ErrInjected)
	}
	if h.fs.dropSync {
		return nil
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
