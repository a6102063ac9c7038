package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func testPayloads(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		p := make([]byte, 1+rng.Intn(200))
		rng.Read(p)
		out = append(out, p)
	}
	return out
}

func appendAll(t *testing.T, w *WAL, payloads [][]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALBytesPerTick pins the WAL encoding of real schedules: the
// store-small fixture's ticks, encoded and framed, must keep their
// committed mean record size.
func TestWALBytesPerTick(t *testing.T) {
	checkWALBytesPerTick(t)
}

func TestWALAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	payloads := testPayloads(50)

	w, records, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh wal has %d records", len(records))
	}
	appendAll(t, w, payloads)
	if w.Records() != len(payloads) {
		t.Fatalf("Records() = %d, want %d", w.Records(), len(payloads))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, records, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(records) != len(payloads) {
		t.Fatalf("reopened %d records, want %d", len(records), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(records[i], payloads[i]) {
			t.Fatalf("record %d differs after reopen", i)
		}
	}
}

// TestWALTornTail truncates the log at every byte offset and checks open
// always recovers exactly the records whose frames survived whole, and
// leaves the file cut back to that record boundary.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(10)
	path := filepath.Join(dir, "ref.log")
	w, _, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, payloads)
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// boundaries[k] is the byte offset after record k-1.
	boundaries := []int{0}
	off := 0
	for _, p := range payloads {
		off += walHeaderSize + len(p)
		boundaries = append(boundaries, off)
	}
	if off != len(full) {
		t.Fatalf("frame math: %d != file size %d", off, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords := 0
		for wantRecords < len(payloads) && boundaries[wantRecords+1] <= cut {
			wantRecords++
		}
		w, records, err := OpenWAL(torn, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(records) != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(records), wantRecords)
		}
		for i := 0; i < wantRecords; i++ {
			if !bytes.Equal(records[i], payloads[i]) {
				t.Fatalf("cut=%d: record %d corrupted", cut, i)
			}
		}
		w.Close()
		st, err := os.Stat(torn)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(boundaries[wantRecords]) {
			t.Fatalf("cut=%d: torn tail not truncated: size %d, want %d", cut, st.Size(), boundaries[wantRecords])
		}
	}
}

// TestWALCorruptMiddle flips a byte inside an early record: the CRC
// rejects it and everything after it is discarded — the durable prefix
// ends at the first bad frame.
func TestWALCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	payloads := testPayloads(8)
	w, _, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, payloads)
	w.Close()

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload of record 3.
	off := 0
	for i := 0; i < 3; i++ {
		off += walHeaderSize + len(payloads[i])
	}
	full[off+walHeaderSize] ^= 0xff
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, records, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(records) != 3 {
		t.Fatalf("recovered %d records past corruption, want 3", len(records))
	}
}

// TestWALFaultInjection arms crash fault points at randomized byte
// offsets: appends fail at the limit, the WAL latches broken, and reopen
// recovers an intact prefix of what was appended.
func TestWALFaultInjection(t *testing.T) {
	payloads := testPayloads(30)
	total := 0
	for _, p := range payloads {
		total += walHeaderSize + len(p)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		limit := int64(rng.Intn(total + 1))
		path := filepath.Join(t.TempDir(), "wal.log")
		w, _, err := OpenWAL(path, WALOptions{Fault: &FaultPoint{Limit: limit}})
		if err != nil {
			t.Fatal(err)
		}
		appended := 0
		var failed bool
		for _, p := range payloads {
			err := w.Append(p)
			if err == nil {
				appended++
				continue
			}
			if !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("limit=%d: %v", limit, err)
			}
			failed = true
			break
		}
		if failed {
			if err := w.Append(payloads[0]); !errors.Is(err, ErrWALBroken) {
				t.Fatalf("limit=%d: append after fault: %v", limit, err)
			}
		}
		w.Close()

		w2, records, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatalf("limit=%d: reopen: %v", limit, err)
		}
		// Every fully appended record survives; the torn one never does.
		if len(records) != appended {
			t.Fatalf("limit=%d: recovered %d records, appended %d", limit, len(records), appended)
		}
		for i := 0; i < len(records); i++ {
			if !bytes.Equal(records[i], payloads[i]) {
				t.Fatalf("limit=%d: record %d corrupted", limit, i)
			}
		}
		w2.Close()
	}
}

// TestWALGroupCommit checks the batching bookkeeping: under a byte
// threshold the dirty counter drains exactly when the threshold trips,
// and Sync drains it on demand.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, WALOptions{SyncBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	small := make([]byte, 100)
	if err := w.Append(small); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dirty := w.dirty
	w.mu.Unlock()
	if dirty == 0 {
		t.Fatal("small append under the byte threshold was synced eagerly")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dirty = w.dirty
	w.mu.Unlock()
	if dirty != 0 {
		t.Fatalf("dirty=%d after Sync", dirty)
	}
	// Crossing the threshold syncs.
	big := make([]byte, 2<<20)
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dirty = w.dirty
	w.mu.Unlock()
	if dirty != 0 {
		t.Fatalf("dirty=%d after threshold-crossing append", dirty)
	}
}

// TestWALOpenShortFiles: an empty file and a file shorter than one frame
// header both open as an empty log, cut back to zero bytes, and append
// from there.
func TestWALOpenShortFiles(t *testing.T) {
	for size := 0; size < walHeaderSize; size++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, bytes.Repeat([]byte{0xa5}, size), 0o644); err != nil {
			t.Fatal(err)
		}
		w, records, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if len(records) != 0 || w.Size() != 0 {
			t.Fatalf("size=%d: opened with %d records, %d bytes", size, len(records), w.Size())
		}
		appendAll(t, w, testPayloads(2))
		w.Close()
		_, records, err = OpenWAL(path, WALOptions{})
		if err != nil || len(records) != 2 {
			t.Fatalf("size=%d: after two appends reopened %d records, err %v", size, len(records), err)
		}
	}
}

// TestWALLastRecordTornAtEveryOffset cuts the log at every byte of its
// last record: the earlier records come back, the file is cut to their
// boundary, and an append lands where the torn record began.
func TestWALLastRecordTornAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(6)
	ref := filepath.Join(dir, "ref.log")
	w, _, err := OpenWAL(ref, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, payloads)
	w.Close()
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	last := len(payloads) - 1
	boundary := len(full) - walHeaderSize - len(payloads[last])
	for cut := boundary; cut < len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, records, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(records) != last || w.Size() != int64(boundary) {
			t.Fatalf("cut=%d: %d records, %d bytes; want %d records, %d bytes", cut, len(records), w.Size(), last, boundary)
		}
		if err := w.Append(payloads[last]); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, full) {
			t.Fatalf("cut=%d: re-appending the torn record did not restore the log (err %v)", cut, err)
		}
	}
}

// TestWALFileChangesAfterStat covers the two ways the file can disagree
// with the size OpenWAL read it at. Bytes that land after the Stat are
// not read (OpenWAL then finds the file longer than the prefix it scanned
// and cuts it back, the branch the torn-tail tests drive); a file that
// shrank gives a short read, which is a shorter durable prefix and not an
// error.
func TestWALFileChangesAfterStat(t *testing.T) {
	payloads := testPayloads(5)
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, payloads)
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	three := 0
	for _, p := range payloads[:3] {
		three += walHeaderSize + len(p)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Grew: the size says three records and a bit, the file holds five.
	raw, err := readLog(f, int64(three+5))
	if err != nil || !bytes.Equal(raw, full[:three+5]) {
		t.Fatalf("reading %d bytes of a longer file: %d bytes, err %v", three+5, len(raw), err)
	}
	// Shrank: the size says twice the file.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	raw, err = readLog(f, int64(2*len(full)))
	if err != nil || !bytes.Equal(raw, full) {
		t.Fatalf("reading %d bytes of a %d-byte file: %d bytes, err %v", 2*len(full), len(full), len(raw), err)
	}
	if raw, err = readLog(f, 64); err != nil || len(raw) != 0 {
		t.Fatalf("reading at end of file: %d bytes, err %v", len(raw), err)
	}
}

// TestWALRecordsAreClippedAndStable: the recovered payloads share one
// buffer, so each must be capacity-clipped (an append to one reallocates
// instead of scribbling on the next frame) and none may change when the
// WAL appends to the file afterwards.
func TestWALRecordsAreClippedAndStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	payloads := testPayloads(12)
	w, _, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, payloads)
	w.Close()

	w, records, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, r := range records {
		if cap(r) != len(r) {
			t.Fatalf("record %d: len %d, cap %d", i, len(r), cap(r))
		}
		_ = append(r, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	}
	appendAll(t, w, testPayloads(40))
	for i := range payloads {
		if !bytes.Equal(records[i], payloads[i]) {
			t.Fatalf("record %d changed under a neighbour's append or a later WAL append", i)
		}
	}
}
