// Package checkpoint is a content-addressed, append-only store for
// experiment grid cell results, built so that the full-scale reproduction
// sweeps (hours of deterministic work) survive interruption: a resumed run
// replays completed cells from the store and is byte-identical to an
// uninterrupted one.
//
// Addressing. Every record is keyed by a SHA-256 over the experiment id,
// the cell's grid label (which carries its row/seed coordinates) and a
// schema version string capturing everything else that determines the
// cell's value and instrumentation (result type shape, Quick scaling,
// whether metrics are attached — see internal/experiment). Because every
// grid cell is a pure function of those coordinates, a key either misses or
// hits a value that is bit-for-bit what re-running the cell would produce.
//
// Atomicity discipline. The store is a single append-only Journal
// (cells.journal; see journal.go for the generic framed container, which
// the jobs daemon reuses for its job journal). Each record is one frame —
// magic "UCP1" | uint32 payload length | uint32 CRC-32C | payload — whose
// payload is a self-contained gob encoding of the Record, appended with one
// Write call; a crash (even SIGKILL) mid-append leaves at most one torn
// frame at the end of the file. Resume recovery scans the journal front to
// back and truncates at the first frame that fails validation — a torn or
// corrupt tail costs only the cells it covered, never the records before
// it. There is no in-place mutation anywhere, so no write can corrupt an
// already-committed record.
//
// FAILED grid cells are deliberately never stored: a resumed run recomputes
// them rather than replaying the failure.
package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Key is the content address of one cell result.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives the content address of a cell from its coordinates. Each
// field is length-prefixed before hashing, so no two distinct
// (experiment, label, schema) triples can collide by concatenation.
func KeyOf(experiment, label, schema string) Key {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{experiment, label, schema} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Record is one committed cell result: identity, the gob-encoded cell
// value and the cell's (timing-zeroed, hence deterministic) metrics
// snapshot.
type Record struct {
	Experiment string
	Label      string
	Schema     string
	// Value is the gob encoding of the cell's typed result.
	Value []byte
	// Metrics is the JSON encoding of the cell's metrics.Snapshot with
	// timing fields zeroed; nil when the run was uninstrumented.
	Metrics []byte
}

// Key returns the record's content address.
func (r *Record) Key() Key { return KeyOf(r.Experiment, r.Label, r.Schema) }

// Stats is a point-in-time view of one store session: the cache traffic
// since Open, the store contents, and what recovery found.
type Stats struct {
	// Hits, Misses count store reads by Lookup and JoinFlight: a read that
	// returned a committed record, and one that returned none. Stores
	// counts Put commits and Errors counts failed Puts (the run continues,
	// the cell is just not cached).
	Hits, Misses, Stores, Errors int64
	// Records is the number of distinct keys currently in the store.
	Records int
	// Resumed reports whether Open recovered an existing journal.
	Resumed bool
	// TornBytes is the length of the invalid tail recovery dropped (0 for a
	// clean journal).
	TornBytes int64
	// DedupWaits counts JoinFlight calls that blocked behind another
	// goroutine computing the same key; DedupHits counts the subset that
	// were then served the leader's record instead of recomputing it — the
	// in-flight cross-job dedup the single-flight table provides on top of
	// the finished-cell cache.
	DedupWaits, DedupHits int64
	// Compactions counts Compact runs; CompactDropped totals the records
	// they dropped.
	Compactions, CompactDropped int64
}

// Store is the on-disk cell-result store. All methods are safe for
// concurrent use by grid workers — one store may be shared by every job of
// the daemon's pool, so identical cells across jobs are computed once.
type Store struct {
	mu   sync.Mutex
	j    *Journal
	dir  string
	recs map[Key]*Record
	// flights is the single-flight table: keys whose cell is being computed
	// right now, each with a channel closed when the computation resolves
	// (see JoinFlight/LeaveFlight).
	flights map[Key]chan struct{}

	resumed   bool
	tornBytes int64

	hits, misses, stores, errors atomic.Int64
	dedupWaits, dedupHits        atomic.Int64
	compactions, compactDropped  atomic.Int64
}

const (
	journalName = "cells.journal"
	// maxPayload bounds a frame's declared payload length. It exists so a
	// corrupt or hostile length field cannot make recovery attempt a
	// multi-gigabyte allocation; real cell records are a few KB.
	maxPayload = 64 << 20
)

var magic = [4]byte{'U', 'C', 'P', '1'}

// crcTable is the Castagnoli polynomial, chosen for its hardware support.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Create opens a fresh store in dir, discarding any existing journal. The
// directory is created if missing.
func Create(dir string) (*Store, error) { return open(dir, false) }

// Resume opens the store in dir, recovering the existing journal: every
// valid record prefix is loaded and a torn or corrupt tail is truncated
// away. A missing journal yields an empty store.
func Resume(dir string) (*Store, error) { return open(dir, true) }

func open(dir string, resume bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	s := &Store{
		dir:     dir,
		recs:    make(map[Key]*Record),
		flights: make(map[Key]chan struct{}),
		resumed: resume,
	}
	if !resume {
		j, err := CreateJournal(path)
		if err != nil {
			return nil, err
		}
		s.j = j
		return s, nil
	}
	// A payload that frames correctly but no longer gob-decodes ends the
	// valid prefix exactly like a torn frame: the journal is truncated
	// there and the cells it covered recompute.
	j, err := ResumeJournal(path, func(payload []byte) bool {
		var r Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
			return false
		}
		s.recs[r.Key()] = &r
		return true
	})
	if err != nil {
		return nil, err
	}
	s.tornBytes = j.TornBytes()
	s.j = j
	return s, nil
}

// decodeFrame parses one record frame from the front of data. ok=false
// means data does not start with a complete valid frame (torn tail,
// corruption, or simply empty) or the framed payload is not a Record.
func decodeFrame(data []byte) (rec *Record, n int64, ok bool) {
	payload, n, ok := decodePayloadFrame(data)
	if !ok {
		return nil, 0, false
	}
	var r Record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
		return nil, 0, false
	}
	return &r, n, true
}

// encodeFrame renders one record as a self-contained journal frame.
func encodeFrame(rec *Record) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return nil, fmt.Errorf("checkpoint: encode record: %w", err)
	}
	return encodePayloadFrame(payload.Bytes())
}

// Lookup returns the record stored under k, counting the outcome in the
// session's hit/miss statistics.
func (s *Store) Lookup(k Key) (*Record, bool) {
	s.mu.Lock()
	rec, ok := s.recs[k]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return rec, ok
}

// Put commits one record: a single journal append, so concurrent grid
// workers interleave whole frames and a crash can tear at most the final
// one. The in-memory index is updated only after the frame reached the
// journal. The store mutex is held across the append — appends already
// serialize on the journal's own mutex, so this costs no concurrency, and
// it guarantees Compact can never snapshot the index between a record's
// journal frame and its index entry (which would silently drop the frame
// from the rewritten journal).
func (s *Store) Put(rec Record) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		s.errors.Add(1)
		return fmt.Errorf("checkpoint: encode record: %w", err)
	}
	s.mu.Lock()
	if s.j == nil {
		s.mu.Unlock()
		s.errors.Add(1)
		return errors.New("checkpoint: store is closed")
	}
	if err := s.j.Append(payload.Bytes()); err != nil {
		s.mu.Unlock()
		s.errors.Add(1)
		return fmt.Errorf("checkpoint: append record: %w", err)
	}
	r := rec
	s.recs[r.Key()] = &r
	s.mu.Unlock()
	s.stores.Add(1)
	return nil
}

// CompactStats reports one Compact run.
type CompactStats struct {
	// Kept and Dropped count the records the rewritten journal retained and
	// discarded.
	Kept, Dropped int
	// BytesBefore and BytesAfter are the journal's on-disk size around the
	// rewrite; the difference includes duplicate and superseded frames the
	// rewrite deduplicated even when nothing was dropped.
	BytesBefore, BytesAfter int64
}

// Compact rewrites the journal to contain exactly the records keep retains
// (nil keeps everything), dropping discarded keys from the in-memory index.
// Even a keep-everything compaction is useful: the rewrite contains one
// frame per live key, so duplicate frames from crashed or concurrent
// sessions are squeezed out. The rewrite is atomic (temp file + fsync +
// rename — see Journal.Rewrite): a crash at any instant leaves either the
// old or the new journal fully valid. Concurrent Puts serialize against the
// compaction and land in the rewritten journal.
func (s *Store) Compact(keep func(*Record) bool) (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j == nil {
		return CompactStats{}, errors.New("checkpoint: store is closed")
	}
	var st CompactStats
	if size, err := s.j.Size(); err == nil {
		st.BytesBefore = size
	}
	// Deterministic rewrite order (commit order is worker-scheduling noise).
	recs := make([]*Record, 0, len(s.recs))
	for _, rec := range s.recs {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Experiment != recs[j].Experiment {
			return recs[i].Experiment < recs[j].Experiment
		}
		return recs[i].Label < recs[j].Label
	})
	payloads := make([][]byte, 0, len(recs))
	var dropped []Key
	for _, rec := range recs {
		if keep != nil && !keep(rec) {
			dropped = append(dropped, rec.Key())
			st.Dropped++
			continue
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
			return st, fmt.Errorf("checkpoint: encode record: %w", err)
		}
		payloads = append(payloads, payload.Bytes())
		st.Kept++
	}
	if err := s.j.Rewrite(payloads); err != nil {
		return st, err
	}
	// Only forget dropped records once the rewrite is durable: a failed
	// rewrite leaves both the journal and the index as they were.
	for _, k := range dropped {
		delete(s.recs, k)
	}
	s.tornBytes = 0
	if size, err := s.j.Size(); err == nil {
		st.BytesAfter = size
	}
	s.compactions.Add(1)
	s.compactDropped.Add(int64(st.Dropped))
	return st, nil
}

// JoinFlight reads the cell addressed by k and coordinates its concurrent
// computation: it is the experiment grid's one store read per labelled
// cell. It returns (rec, false) when a committed record exists, possibly
// after blocking while another goroutine (the flight leader) computed it;
// and (nil, true) when the caller has become the leader and must compute
// the cell, then call LeaveFlight — via defer, so even a panicking
// computation releases the waiters. A leader that resolves without
// committing a record (failed or cancelled cell) promotes one waiter to
// leader, so the work is retried, never lost. A nil ctx waits indefinitely;
// a ctx that fires mid-wait returns (nil, false) — the caller computes on
// its own, losing only the dedup. Each call counts one hit when it returns
// a record (and a DedupHit too when it waited for it), else one miss.
func (s *Store) JoinFlight(ctx context.Context, k Key) (*Record, bool) {
	waited := false
	for {
		s.mu.Lock()
		if rec, ok := s.recs[k]; ok {
			s.mu.Unlock()
			s.hits.Add(1)
			if waited {
				s.dedupHits.Add(1)
			}
			return rec, false
		}
		ch, inflight := s.flights[k]
		if !inflight {
			s.flights[k] = make(chan struct{})
			s.mu.Unlock()
			s.misses.Add(1)
			return nil, true
		}
		s.mu.Unlock()
		if !waited {
			waited = true
			s.dedupWaits.Add(1)
		}
		if ctx == nil {
			<-ch
			continue
		}
		select {
		case <-ch:
		case <-ctx.Done():
			s.misses.Add(1)
			return nil, false
		}
	}
}

// LeaveFlight resolves the flight a JoinFlight leader holds on k, waking
// every waiter (each re-checks the store: a committed record fans out, a
// missing one promotes the first waiter to leader). Idempotent.
func (s *Store) LeaveFlight(k Key) {
	s.mu.Lock()
	if ch, ok := s.flights[k]; ok {
		delete(s.flights, k)
		close(ch)
	}
	s.mu.Unlock()
}

// Sync flushes every committed record to stable storage (fsync on the
// journal). The daemon's drain path calls it before reporting a clean
// shutdown; a no-op on a closed store.
func (s *Store) Sync() error {
	s.mu.Lock()
	j := s.j
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Sync()
}

// JournalSize reports the store journal's current on-disk length in bytes
// — the store's contribution to a state-directory byte budget.
func (s *Store) JournalSize() (int64, error) {
	s.mu.Lock()
	j := s.j
	s.mu.Unlock()
	if j == nil {
		return 0, errors.New("checkpoint: store is closed")
	}
	return j.Size()
}

// NoteError counts a store-related failure that happened outside the
// store's own methods (e.g. a record that no longer decodes into the
// caller's type), so session stats reflect every degraded interaction.
func (s *Store) NoteError() { s.errors.Add(1) }

// Len returns the number of distinct records in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Hash returns a content hash of the whole store that is independent of
// record order (workers commit in completion order), so a resumed run and
// an uninterrupted run over the same grid report the same hash.
func (s *Store) Hash() string {
	s.mu.Lock()
	sums := make([][sha256.Size]byte, 0, len(s.recs))
	for k, rec := range s.recs {
		h := sha256.New()
		h.Write(k[:])
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(rec.Value)))
		h.Write(n[:])
		h.Write(rec.Value)
		h.Write(rec.Metrics)
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		sums = append(sums, sum)
	}
	s.mu.Unlock()
	sort.Slice(sums, func(i, j int) bool { return bytes.Compare(sums[i][:], sums[j][:]) < 0 })
	h := sha256.New()
	for _, sum := range sums {
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Each calls fn for every record, sorted by (experiment, label) so
// inspection output is deterministic regardless of commit order.
func (s *Store) Each(fn func(*Record)) {
	s.mu.Lock()
	recs := make([]*Record, 0, len(s.recs))
	for _, rec := range s.recs {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Experiment != recs[j].Experiment {
			return recs[i].Experiment < recs[j].Experiment
		}
		return recs[i].Label < recs[j].Label
	})
	for _, rec := range recs {
		fn(rec)
	}
}

// Stats returns the session's cache statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records := len(s.recs)
	torn := s.tornBytes
	s.mu.Unlock()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Stores:         s.stores.Load(),
		Errors:         s.errors.Load(),
		Records:        records,
		Resumed:        s.resumed,
		TornBytes:      torn,
		DedupWaits:     s.dedupWaits.Load(),
		DedupHits:      s.dedupHits.Load(),
		Compactions:    s.compactions.Load(),
		CompactDropped: s.compactDropped.Load(),
	}
}

// Close releases the journal handle. Further Puts fail; Lookups keep
// serving the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	j := s.j
	s.j = nil
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}
