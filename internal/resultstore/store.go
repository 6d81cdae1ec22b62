package resultstore

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
)

// Entry is the persisted form of one result: the content-address key, an
// optional kind tag (lpmemd stores experiment envelopes as "experiment"),
// and the opaque payload the caller wants back.
type Entry struct {
	Key     string          `json:"key"`
	Kind    string          `json:"kind,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// Options tune a Store.
type Options struct {
	// MaxCached bounds the in-memory LRU line cache. <= 0 means 4096
	// entries. A file-backed store's key index is not bounded — it holds
	// only offsets; a memory-only store holds at most MaxCached keys.
	MaxCached int
	// Sync fsyncs every append; see OpenLog.
	Sync bool
}

// Stats is a point-in-time snapshot of store counters, shaped for
// lpmemd's /metrics endpoint.
type Stats struct {
	// Keys is the number of distinct keys known (index size).
	Keys int `json:"keys"`
	// Cached is the number of lines currently held by the LRU.
	Cached int `json:"cached"`
	// MaxCached is the LRU bound.
	MaxCached int `json:"max_cached"`
	// Hits/Misses count Get/Line outcomes; a hit served from the file
	// rather than the LRU still counts as a hit.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// FileReads counts LRU misses satisfied by re-reading the log.
	FileReads uint64 `json:"file_reads"`
	// Refreshes counts incremental scans that picked up appended lines
	// (from this replica or its peers).
	Refreshes uint64 `json:"refreshes"`
	// Appends counts Put/AppendLine calls that reached the log.
	Appends uint64 `json:"appends"`
	// Evictions counts LRU line evictions.
	Evictions uint64 `json:"evictions"`
	// SkippedLines counts unparseable lines dropped during scans (at most
	// the torn tail of a killed writer on a healthy file).
	SkippedLines uint64 `json:"skipped_lines"`
}

// span locates one entry's line in the log. off < 0 means the line was
// appended by this handle but its offset is not yet known — the next
// scan resolves it (our own append is always at or past the scan
// frontier, so a future scan is guaranteed to reach it).
type span struct {
	off int64
	len int
}

// lruEntry caches one whole line; payload memoises its decoded Entry
// payload once Get has asked for it.
type lruEntry struct {
	key     string
	line    []byte
	payload json.RawMessage
}

// keyed is the one field the index reads from every line.
type keyed struct {
	Key string `json:"key"`
}

// Store is a content-addressed result cache shared across replicas: a
// key -> line index over an append-only Log with a size-bounded LRU of
// whole lines in front. Every line is a JSON object indexed by its
// top-level "key"; Get/Put speak the Entry line format, Line/AppendLine
// let a typed view (internal/sweep) keep its own. Get serves hot keys
// from memory, cold keys by a single ReadAt, and unknown keys after an
// incremental refresh that merges whatever other replicas appended since
// the last look. An empty path makes the store memory-only (no sharing,
// used by tests and storeless lpmemd): it then holds at most MaxCached
// keys, since an evicted line has no file to come back from.
type Store struct {
	opts Options
	log  *Log // nil when memory-only

	mu    sync.Mutex
	index map[string]span
	lru   *list.List // front = most recently used *lruEntry
	byKey map[string]*list.Element

	hits, misses, fileReads, refreshes uint64
	appends, evictions, skipped        uint64
}

// Open opens (creating if needed) the store at path, loading the index
// from every intact line. An empty path yields a memory-only store.
func Open(path string, opts Options) (*Store, error) {
	if opts.MaxCached <= 0 {
		opts.MaxCached = 4096
	}
	s := &Store{
		opts:  opts,
		index: make(map[string]span),
		lru:   list.New(),
		byKey: make(map[string]*list.Element),
	}
	if path == "" {
		return s, nil
	}
	log, err := OpenLog(path, opts.Sync)
	if err != nil {
		return nil, err
	}
	s.log = log
	if err := s.Refresh(); err != nil {
		_ = log.Close()
		return nil, err
	}
	return s, nil
}

// Path returns the backing file path ("" for memory-only stores).
func (s *Store) Path() string {
	if s.log == nil {
		return ""
	}
	return s.log.Path()
}

// Len returns the number of distinct keys known.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Keys:         len(s.index),
		Cached:       s.lru.Len(),
		MaxCached:    s.opts.MaxCached,
		Hits:         s.hits,
		Misses:       s.misses,
		FileReads:    s.fileReads,
		Refreshes:    s.refreshes,
		Appends:      s.appends,
		Evictions:    s.evictions,
		SkippedLines: s.skipped,
	}
}

// Refresh scans lines appended since the last look — by this replica or
// any peer sharing the file — into the index. Lines are not cached
// eagerly; the LRU fills on demand.
func (s *Store) Refresh() error {
	if s.log == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshLocked()
}

func (s *Store) refreshLocked() error {
	grew := false
	err := s.log.Scan(func(off int64, line []byte) error {
		var k keyed
		if err := json.Unmarshal(line, &k); err != nil || k.Key == "" {
			s.skipped++
			return nil
		}
		s.index[k.Key] = span{off: off, len: len(line)}
		grew = true
		return nil
	})
	if grew {
		s.refreshes++
	}
	return err
}

// Get returns the Entry payload stored under key, if any replica has put
// it. The lookup order is LRU, then log by indexed offset, then one
// incremental refresh to pick up peers' recent appends.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.lineLocked(key)
	if !ok && s.log != nil && s.refreshLocked() == nil {
		// Unknown here — but a peer replica may have computed it since
		// our last scan. Refresh is cheap when nothing was appended (one
		// fstat).
		el, ok = s.lineLocked(key)
	}
	if ok && el.payload == nil {
		var e Entry
		if err := json.Unmarshal(el.line, &e); err != nil {
			ok = false
		} else {
			el.payload = e.Payload
		}
	}
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	return el.payload, true
}

// Line returns the whole line indexed under key without refreshing: the
// caller decides when to merge peers' appends (see Refresh). The slice
// is shared with the cache and must not be modified.
func (s *Store) Line(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.lineLocked(key)
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	return el.line, true
}

// lineLocked serves key from the LRU, else from the log via the index,
// refilling the LRU. Spans still awaiting their offset (our own
// un-scanned appends) are resolved by a refresh first.
func (s *Store) lineLocked(key string) (*lruEntry, bool) {
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*lruEntry), true
	}
	sp, ok := s.index[key]
	if !ok || s.log == nil {
		return nil, false
	}
	if sp.off < 0 {
		if err := s.refreshLocked(); err != nil {
			return nil, false
		}
		if sp = s.index[key]; sp.off < 0 {
			return nil, false
		}
	}
	line, err := s.log.ReadAt(sp.off, sp.len)
	if err != nil {
		return nil, false
	}
	var k keyed
	if err := json.Unmarshal(line, &k); err != nil || k.Key != key {
		return nil, false
	}
	s.fileReads++
	return s.insertLocked(key, line, nil), true
}

// Put stores payload under key as one Entry line: append to the shared
// log (fsync'd per Options) and refill the LRU. Peers observe the entry
// at their next refresh. Re-putting a key is allowed — results are
// content-addressed, so a duplicate line carries the same value and
// load-time merging by key keeps one.
func (s *Store) Put(key, kind string, payload interface{}) error {
	if key == "" {
		return fmt.Errorf("resultstore: put with empty key")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("resultstore: encode payload: %w", err)
	}
	line, err := json.Marshal(Entry{Key: key, Kind: kind, Payload: raw})
	if err != nil {
		return fmt.Errorf("resultstore: encode entry: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(key, line, raw)
}

// AppendLine stores an already-encoded line — a JSON object whose
// top-level "key" is key — exactly as given, with the same sharing and
// caching as Put. The store keeps line; the caller must not modify it.
func (s *Store) AppendLine(key string, line []byte) error {
	if key == "" {
		return fmt.Errorf("resultstore: put with empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(key, line, nil)
}

func (s *Store) appendLocked(key string, line []byte, payload json.RawMessage) error {
	if s.log != nil {
		if err := s.log.Append(line); err != nil {
			return err
		}
		s.appends++
	}
	if _, known := s.index[key]; !known || s.log == nil {
		// Offset unknown until a scan reaches our line; see span.
		s.index[key] = span{off: -1}
	}
	s.insertLocked(key, line, payload)
	return nil
}

// insertLocked adds (or replaces) a line in the LRU, evicting from the
// back past the bound. A memory-only store forgets evicted keys: no file
// could serve them again.
func (s *Store) insertLocked(key string, line []byte, payload json.RawMessage) *lruEntry {
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*lruEntry)
		e.line, e.payload = line, payload
		s.lru.MoveToFront(el)
		return e
	}
	e := &lruEntry{key: key, line: line, payload: payload}
	s.byKey[key] = s.lru.PushFront(e)
	for s.lru.Len() > s.opts.MaxCached {
		back := s.lru.Remove(s.lru.Back()).(*lruEntry)
		delete(s.byKey, back.key)
		if s.log == nil {
			delete(s.index, back.key)
		}
		s.evictions++
	}
	return e
}

// Close closes the backing log; the in-memory LRU stays readable but
// file read-through and appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
