package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
)

// On-disk layout:
//
//	<root>/clusters/<escaped-id>/spec.json     the scenario (create-time, immutable)
//	<root>/clusters/<escaped-id>/snapshot.bin  newest control-loop snapshot (atomic replace)
//	<root>/clusters/<escaped-id>/wal.log       one CRC-framed record per committed tick
//
// snapshot.bin is one frame of the WAL's kind — length and CRC-32C, then
// the EncodeSnapshot payload — so a flipped bit or a torn write is seen,
// not decoded into a different snapshot. A snapshot.bin that is not
// exactly one intact frame (one written before the frame, for one) is
// treated as absent.
//
// A snapshot.json is what tempod wrote before snapshot.bin existed. It is
// never read — the WAL is authoritative, so such a directory recovers by
// full re-drive — and the next snapshot write removes it.
//
// Cluster ids come from the HTTP API, so directory names use an injective
// percent-escaping of the id; everything outside [A-Za-z0-9_-] (including
// '.', so "." and ".." cannot appear) is encoded as %XX.

// ErrExists is returned when creating a cluster whose id already has
// on-disk state.
var ErrExists = errors.New("store: cluster already exists")

// ErrNotFound is returned for operations naming a cluster with no on-disk
// state.
var ErrNotFound = errors.New("store: unknown cluster")

// Options tune every cluster WAL's group commit; see WALOptions.
type Options struct {
	SyncInterval time.Duration
	SyncBytes    int
	// Stall, when non-nil, runs before every WAL fsync (chaos fault
	// injection; see WALOptions.Stall).
	Stall func()
}

// Store is the root handle on a tempod data directory.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	clusters map[string]*ClusterStore
	closed   bool
}

// Open opens (creating if absent) the data directory and recovers every
// cluster in it: each WAL is scanned, torn tails are truncated, and the
// surviving state is ready for Load/Resume.
func Open(dir string, opts Options) (*Store, error) {
	root := filepath.Join(dir, "clusters")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, clusters: map[string]*ClusterStore{}}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id, err := unescapeID(e.Name())
		if err != nil {
			return nil, fmt.Errorf("store: alien directory %q in %s: %w", e.Name(), root, err)
		}
		cs, err := openCluster(id, filepath.Join(root, e.Name()), opts)
		if err != nil {
			return nil, fmt.Errorf("store: recovering cluster %s: %w", id, err)
		}
		s.clusters[id] = cs
	}
	return s, nil
}

// IDs returns the ids with on-disk state, sorted.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.clusters))
	for id := range s.clusters {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns the cluster's store, or ErrNotFound.
func (s *Store) Get(id string) (*ClusterStore, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.clusters[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return cs, nil
}

// Create makes the cluster's directory, persists its spec, and opens an
// empty WAL.
func (s *Store) Create(id string, spec *scenario.Spec) (*ClusterStore, error) {
	if id == "" {
		return nil, errors.New("store: empty cluster id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if _, ok := s.clusters[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	dir := filepath.Join(s.dir, "clusters", escapeID(id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(dir, "spec.json"), append(raw, '\n')); err != nil {
		return nil, err
	}
	cs, err := openCluster(id, dir, s.opts)
	if err != nil {
		return nil, err
	}
	s.clusters[id] = cs
	return cs, nil
}

// DeleteCluster closes cs's WAL and removes its on-disk state — but only while cs still
// backs its id. A teardown queued behind a delete+re-create of the same
// id must remove the old incarnation's state, never the new one's.
func (s *Store) DeleteCluster(cs *ClusterStore) error {
	s.mu.Lock()
	cur, ok := s.clusters[cs.id]
	if ok && cur == cs {
		delete(s.clusters, cs.id)
	} else {
		ok = false
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, cs.id)
	}
	cs.closeWAL()
	if err := os.RemoveAll(cs.dir); err != nil {
		return err
	}
	return syncDir(filepath.Dir(cs.dir))
}

// Close flushes and closes every cluster WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, cs := range s.clusters {
		if cerr := cs.closeWAL(); err == nil {
			err = cerr
		}
	}
	return err
}

// ClusterStore is one cluster's durable state.
type ClusterStore struct {
	id   string
	dir  string
	spec *scenario.Spec
	opts Options

	mu  sync.Mutex
	wal *WAL
	// recovered holds the WAL payloads that survived the open-time scan
	// (they alias one buffer the size of the log) until Schedules decodes
	// them and lets them go; drained records that it has.
	recovered [][]byte
	drained   bool
	// ticks is the next tick index AppendTick accepts: recovered records
	// plus live appends.
	ticks int
	enc   []byte
}

func openCluster(id, dir string, opts Options) (*ClusterStore, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Load(strings.NewReader(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	wal, records, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{
		SyncInterval: opts.SyncInterval,
		SyncBytes:    opts.SyncBytes,
		Stall:        opts.Stall,
	})
	if err != nil {
		return nil, err
	}
	return &ClusterStore{id: id, dir: dir, spec: spec, opts: opts, wal: wal, recovered: records, ticks: len(records)}, nil
}

// Spec returns the scenario persisted at create time.
func (c *ClusterStore) Spec() *scenario.Spec { return c.spec }

// AppendTick logs one committed tick's observed schedule. Ticks must
// arrive in order with no gaps — the WAL's record index is the tick
// index, which is what lets recovery pair records with control intervals.
func (c *ClusterStore) AppendTick(tick int, sched *cluster.Schedule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tick != c.ticks {
		return fmt.Errorf("store: cluster %s: appending tick %d, expected %d", c.id, tick, c.ticks)
	}
	c.enc = EncodeTick(c.enc[:0], tick, sched)
	if err := c.wal.Append(c.enc); err != nil {
		return err
	}
	c.ticks++
	return nil
}

// Schedules decodes the recovered WAL records into the observed
// schedules, oldest first — the WAL half of the durable state
// scenario.Resume consumes. It reflects the log as of Open; live appends
// come from the running session, which already has them. The records are
// handed over, not kept: the store releases its copy of the log, and a
// second call without a Reopen in between is an error.
func (c *ClusterStore) Schedules() ([]*cluster.Schedule, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drained {
		return nil, fmt.Errorf("store: cluster %s: recovered schedules already handed over; Reopen re-reads the log", c.id)
	}
	records := c.recovered
	c.recovered, c.drained = nil, true
	out := make([]*cluster.Schedule, 0, len(records))
	var dec tickDecoder
	for i, payload := range records {
		tick, sched, err := dec.decode(payload)
		if err != nil {
			return nil, fmt.Errorf("store: cluster %s: wal record %d: %w", c.id, i, err)
		}
		if tick != i {
			return nil, fmt.Errorf("store: cluster %s: wal record %d carries tick %d", c.id, i, tick)
		}
		out = append(out, sched)
	}
	return out, nil
}

// WriteSnapshot atomically replaces the cluster's snapshot.
func (c *ClusterStore) WriteSnapshot(snap *scenario.Snapshot) error {
	rec := EncodeSnapshot(make([]byte, walHeaderSize), snap)
	if err := sealFrame(rec); err != nil {
		return fmt.Errorf("store: cluster %s: snapshot: %w", c.id, err)
	}
	if err := writeFileAtomic(filepath.Join(c.dir, "snapshot.bin"), rec); err != nil {
		return err
	}
	// A stale snapshot.json is never read; failing to remove it changes
	// nothing a later start would do.
	_ = os.Remove(filepath.Join(c.dir, "snapshot.json"))
	return nil
}

// LoadSnapshot returns the newest snapshot, or (nil, nil) when none has
// been written. A snapshot that is not exactly one intact frame, or whose
// payload fails to decode, is discarded (recovery falls back to a full
// WAL re-drive) rather than failing recovery.
func (c *ClusterStore) LoadSnapshot() (*scenario.Snapshot, error) {
	raw, err := os.ReadFile(filepath.Join(c.dir, "snapshot.bin"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, good := scanRecords(raw)
	if len(recs) != 1 || good != len(raw) {
		return nil, nil
	}
	snap, err := DecodeSnapshot(recs[0])
	if err != nil {
		return nil, nil
	}
	return snap, nil
}

// Sync forces the WAL's dirty tail to stable storage.
func (c *ClusterStore) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.Sync()
}

// WALSize returns the WAL's byte length (metrics, benches).
func (c *ClusterStore) WALSize() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.Size()
}

// InjectFault arms a crash fault point on the cluster's WAL: writes stop,
// torn, once the file reaches limit bytes. Chaos and recovery tests only.
func (c *ClusterStore) InjectFault(limit int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wal.mu.Lock()
	defer c.wal.mu.Unlock()
	c.wal.opts.Fault = &FaultPoint{Limit: limit, written: c.wal.size}
}

// closeWAL flushes and closes the current WAL handle under the cluster
// lock (Reopen can swap the handle concurrently with teardown).
func (c *ClusterStore) closeWAL() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.Close()
}

// Reopen discards the cluster's WAL handle — broken by a write error or
// an injected fault — and re-opens the file from disk: the log is
// re-scanned, any torn tail truncated away, the recovered record set
// refreshed, and any armed fault point cleared. It is the store half of
// degraded-mode recovery: success means the durable prefix is readable
// and appendable again, so the service can resume the cluster from it.
func (c *ClusterStore) Reopen() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.wal.Close(); err != nil {
		return err
	}
	wal, records, err := OpenWAL(filepath.Join(c.dir, "wal.log"), WALOptions{
		SyncInterval: c.opts.SyncInterval,
		SyncBytes:    c.opts.SyncBytes,
		Stall:        c.opts.Stall,
	})
	if err != nil {
		return err
	}
	c.wal = wal
	c.recovered, c.drained = records, false
	c.ticks = len(records)
	return nil
}

// writeFileAtomic replaces path with data via tmp-write + fsync + rename
// + directory fsync, so a crash leaves either the old file or the new one
// — never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// escapeID maps a cluster id to a filesystem-safe directory name,
// injectively: bytes outside [A-Za-z0-9_-] become %XX ('%' included, so
// decoding is unambiguous; '.' included, so "." and ".." cannot occur).
func escapeID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		ch := id[i]
		if ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' || ch == '_' || ch == '-' {
			b.WriteByte(ch)
		} else {
			fmt.Fprintf(&b, "%%%02x", ch)
		}
	}
	return b.String()
}

// unescapeID inverts escapeID and accepts only names escapeID writes, so
// no two directories decode to one id.
func unescapeID(name string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if ch != '%' {
			b.WriteByte(ch)
			continue
		}
		if i+2 >= len(name) {
			return "", fmt.Errorf("truncated escape in %q", name)
		}
		var v int
		if _, err := fmt.Sscanf(name[i+1:i+3], "%02x", &v); err != nil {
			return "", fmt.Errorf("bad escape in %q", name)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	if id := b.String(); escapeID(id) == name {
		return id, nil
	}
	return "", fmt.Errorf("%q is not the canonical escaping of its id", name)
}
