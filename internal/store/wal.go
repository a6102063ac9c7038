// Package store is tempod's durable control-plane state: one directory
// per hosted cluster holding the scenario spec, a periodic snapshot of
// the control loop (internal/scenario.Snapshot, in the binary encoding
// codec.go defines beside the tick record's), and an append-only WAL with
// one CRC-framed record per committed tick: the observed schedule's
// record view (Jobs and Tasks).
//
// Durability is relaxed where determinism makes it free: a crash may lose
// the un-fsynced WAL tail and any snapshot staleness, but never a
// committed trajectory — recovery rebuilds the runtime from the spec,
// restores the newest usable snapshot, re-drives the control loop through
// the surviving WAL records with observations injected, and the
// recovered cluster's report is byte-identical to an uninterrupted run.
// Re-ticking a lost tail is safe for the same reason: every tick is a
// pure function of spec + prior observations.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// WAL framing: each record is a fixed header (payload length, CRC-32C of
// the payload, both little-endian uint32) followed by the payload. On
// open the file is scanned front to back; the first hole — short header,
// short payload, implausible length, CRC mismatch — ends the durable
// prefix and the torn tail beyond it is truncated away. A WAL is never
// compacted: a cluster's iteration budget is finite and the full record
// history is what serves windowed QS queries after recovery.
const (
	walHeaderSize = 8
	// walMaxRecord bounds a single record's payload; a length field above
	// it is treated as corruption, not as a 4 GiB allocation request.
	walMaxRecord = 64 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrFaultInjected marks a write cut short by a FaultPoint — the injected
// equivalent of the machine dying mid-write.
var ErrFaultInjected = errors.New("store: injected crash fault")

// ErrWALBroken is returned by appends after a write error (including an
// injected fault): the file tail is undefined, so the WAL refuses to
// write anything further past it.
var ErrWALBroken = errors.New("store: wal broken by earlier write error")

// FaultPoint injects a crash at a byte offset of the WAL file: the write
// that would carry the file past Limit bytes is truncated there and fails
// with ErrFaultInjected, leaving a torn record exactly like a real crash
// mid-write. Recovery tests sweep Limit over randomized offsets.
type FaultPoint struct {
	// Limit is the total number of bytes allowed to reach the file.
	Limit int64

	written int64
}

// WALOptions tune group commit.
type WALOptions struct {
	// SyncInterval is the group-commit window: an fsync is issued when this
	// much time has passed since the last one (checked at append). Zero
	// with zero SyncBytes means fsync on every append.
	SyncInterval time.Duration
	// SyncBytes forces an fsync once this many bytes are dirty. Zero with
	// zero SyncInterval means fsync on every append.
	SyncBytes int
	// Fault, when non-nil, injects a crash (tests only).
	Fault *FaultPoint
	// Stall, when non-nil, runs before every fsync — the chaos hook for
	// a device that intermittently takes forever to flush. It runs with
	// the WAL lock held, so a stall delays this WAL's appends exactly
	// like a real slow disk would.
	Stall func()
}

// WAL is one cluster's append-only record log. Appends write through to
// the OS immediately (a SIGKILL loses nothing already appended) and
// batch fsyncs per WALOptions (a power failure loses at most the window
// since the last fsync — a tail recovery re-derives).
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	opts     WALOptions
	size     int64
	dirty    int64
	lastSync time.Time
	broken   bool
	closed   bool
}

// OpenWAL opens (creating if absent) the log at path, scans it, truncates
// any torn tail, and returns the WAL positioned for appends plus every
// intact record payload in append order. The payloads alias one buffer
// holding the whole file — the caller drops them all to release it.
func OpenWAL(path string, opts WALOptions) (*WAL, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*WAL, [][]byte, error) {
		f.Close()
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	raw, err := readLog(f, st.Size())
	if err != nil {
		return fail(fmt.Errorf("store: reading wal %s: %w", path, err))
	}
	records, good := scanRecords(raw)
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fail(err)
	}
	if end != int64(good) {
		// Torn tail: a crash cut the last write short (or bytes landed after
		// Stat and were never scanned). Drop it — the ticks it carried re-run
		// deterministically.
		if err := f.Truncate(int64(good)); err != nil {
			return fail(fmt.Errorf("store: truncating torn wal tail %s: %w", path, err))
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
			return fail(err)
		}
	}
	w := &WAL{f: f, path: path, opts: opts, size: int64(good)}
	return w, records, nil
}

// readLog reads the size bytes Stat reported in one read into one buffer
// of exactly that size. A short read (the file shrank since) is a shorter
// durable prefix, not an error.
func readLog(f *os.File, size int64) ([]byte, error) {
	raw := make([]byte, size)
	n, err := io.ReadFull(f, raw)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return raw[:n], nil
}

// scanRecords walks the framed records in raw and returns the intact
// payloads plus the byte length of the durable prefix. Each payload is a
// sub-slice of raw, its capacity clipped to its length so an append to one
// reallocates instead of writing into its neighbour.
func scanRecords(raw []byte) (records [][]byte, good int) {
	off := 0
	for {
		if len(raw)-off < walHeaderSize {
			return records, off
		}
		n := binary.LittleEndian.Uint32(raw[off:])
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if n > walMaxRecord || len(raw)-off-walHeaderSize < int(n) {
			return records, off
		}
		end := off + walHeaderSize + int(n)
		payload := raw[off+walHeaderSize : end : end]
		if crc32.Checksum(payload, walCRC) != sum {
			return records, off
		}
		records = append(records, payload)
		off = end
	}
}

// sealFrame makes rec one framed record: it writes the length and CRC-32C
// of the payload rec[walHeaderSize:] into the header rec[:walHeaderSize].
// The WAL frames each tick record this way, and snapshot.bin is one such
// frame. It refuses a payload over walMaxRecord, which scanRecords would
// read as corruption.
func sealFrame(rec []byte) error {
	payload := rec[walHeaderSize:]
	if len(payload) > walMaxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte limit", len(payload), walMaxRecord)
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, walCRC))
	return nil
}

// Size returns the log's current byte length.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append frames payload and writes it through to the OS, fsyncing per the
// group-commit policy. On return the record survives a process kill; it
// survives a machine crash once the batch it rides on is synced.
func (w *WAL) Append(payload []byte) error {
	frame := make([]byte, walHeaderSize+len(payload))
	copy(frame[walHeaderSize:], payload)
	if err := sealFrame(frame); err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal %s is closed", w.path)
	}
	if w.broken {
		return ErrWALBroken
	}
	if err := w.write(frame); err != nil {
		w.broken = true
		return err
	}
	w.size += int64(len(frame))
	w.dirty += int64(len(frame))
	return w.maybeSync()
}

// write pushes b to the file, honoring the fault point: a write crossing
// the fault limit lands only its prefix, exactly like a crash mid-write.
func (w *WAL) write(b []byte) error {
	if fp := w.opts.Fault; fp != nil {
		if remain := fp.Limit - fp.written; remain < int64(len(b)) {
			if remain > 0 {
				w.f.Write(b[:remain])
				w.f.Sync()
				fp.written = fp.Limit
			}
			return ErrFaultInjected
		}
		fp.written += int64(len(b))
	}
	_, err := w.f.Write(b)
	return err
}

// maybeSync applies the group-commit policy with w.mu held.
func (w *WAL) maybeSync() error {
	if w.dirty == 0 {
		return nil
	}
	every := w.opts.SyncInterval == 0 && w.opts.SyncBytes == 0
	byBytes := w.opts.SyncBytes > 0 && w.dirty >= int64(w.opts.SyncBytes)
	byTime := w.opts.SyncInterval > 0 && time.Since(w.lastSync) >= w.opts.SyncInterval
	if !every && !byBytes && !byTime {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.opts.Stall != nil {
		w.opts.Stall()
	}
	if err := w.f.Sync(); err != nil {
		w.broken = true
		return err
	}
	w.dirty = 0
	//tempolint:ignore determinism group-commit pacing is wall-clock durability policy; WAL bytes are unaffected
	w.lastSync = time.Now()
	return nil
}

// Sync forces the dirty tail to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.broken {
		return nil
	}
	if w.dirty == 0 {
		return nil
	}
	return w.syncLocked()
}

// Close flushes and closes the log. Safe to call twice.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if !w.broken && w.dirty > 0 {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
