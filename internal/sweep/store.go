package sweep

import (
	"encoding/json"
	"fmt"

	"lpmem/internal/resultstore"
)

// Record is one persisted point evaluation. Point coordinates are stored
// in their canonical text form so records survive axis-type refactors
// and stay human-greppable in the JSONL file.
type Record struct {
	// Key is the content address: adapter @ StoreVersion : FNV of the
	// canonical point (see Key).
	Key string `json:"key"`
	// Adapter names the substrate that produced the metrics.
	Adapter string `json:"adapter"`
	// Point maps axis name to the coordinate's canonical text form.
	Point map[string]string `json:"point"`
	// Metrics is the evaluated objective triple.
	Metrics Metrics `json:"metrics"`
}

// Store is the persistent result cache that makes sweeps incremental: an
// append-only JSON-lines file keyed by point content hash. Re-running a
// sweep against a warm store executes only the missing points; a sweep
// killed mid-flight resumes from whatever was flushed. A Store with an
// empty path is memory-only (used by the HTTP service and tests); it
// keeps the 4096 most recently used records.
//
// Store is a typed view over resultstore.Store, which owns the index,
// the LRU, the incremental refresh across replicas sharing the file and
// the count of skipped lines: Put encodes a Record as one line, Get
// decodes the indexed one. Loading tolerates a torn final line — the
// footprint of a killed process — and skips any other unparseable line
// rather than refusing the whole file: every intact record is still
// worth not recomputing.
type Store struct {
	rs *resultstore.Store
}

// OpenStore loads (creating if needed) the JSONL store at path, or
// returns a memory-only store when path is empty.
func OpenStore(path string) (*Store, error) {
	rs, err := resultstore.Open(path, resultstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	return &Store{rs: rs}, nil
}

// Path returns the backing file path ("" for memory-only stores).
func (s *Store) Path() string { return s.rs.Path() }

// Len returns the number of records held.
func (s *Store) Len() int { return s.rs.Len() }

// Skipped reports how many unparseable lines the loads so far dropped
// (0 on a healthy file; at most the torn tail of a killed sweep).
func (s *Store) Skipped() int { return int(s.rs.Stats().SkippedLines) }

// Get returns the record for key, if present. It does not look for
// peers' appends; call Refresh for that.
func (s *Store) Get(key string) (Record, bool) {
	line, ok := s.rs.Line(key)
	if !ok {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// Refresh merges records appended to the backing file since the last
// load — the work of sibling replicas sharing the store. Memory-only
// stores no-op. The call is cheap when nothing new was appended (one
// fstat).
func (s *Store) Refresh() error {
	if err := s.rs.Refresh(); err != nil {
		return fmt.Errorf("sweep: refresh store: %w", err)
	}
	return nil
}

// Put inserts (or overwrites) a record and appends it to the backing
// file as one whole line, immediately visible to peer processes. A
// killed process loses at most the record being written.
func (s *Store) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("sweep: record with empty key")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: encode record: %w", err)
	}
	if err := s.rs.AppendLine(rec.Key, line); err != nil {
		return fmt.Errorf("sweep: write store: %w", err)
	}
	return nil
}

// Close closes the backing file. Recently used records stay readable.
func (s *Store) Close() error {
	if err := s.rs.Close(); err != nil {
		return fmt.Errorf("sweep: close store: %w", err)
	}
	return nil
}

// RecordFor builds the persisted form of one evaluated point.
func RecordFor(adapter string, p Point, m Metrics) Record {
	coords := make(map[string]string, len(p))
	for name, v := range p {
		coords[name] = v.String()
	}
	return Record{
		Key:     Key(adapter, StoreVersion, p),
		Adapter: adapter,
		Point:   coords,
		Metrics: m,
	}
}
