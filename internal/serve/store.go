package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/graphio"
	"repro/internal/iso"
)

// StoreEntry is one line of the persistent verdict journal: a graph, the
// check it was certified under, and the verdict — the certification prefix
// of the atlas corpus schema (atlas.Entry embeds this struct and extends
// it with discovery metadata), so a checked-in atlas corpus parses
// directly as a warm-start seed and journal lines read as corpus-shaped
// records. Field order is the canonical rendering order; the atlas
// verifier byte-compares re-marshaled entries, so it is load-bearing.
type StoreEntry struct {
	// ID is a stable line identifier ("sv-…" for journal appends, the
	// corpus ID when seeded from an atlas).
	ID string `json:"id"`
	// Kind is "verdict" for journal appends (atlas corpora use their own
	// kinds).
	Kind string `json:"kind"`
	// Source records who certified the line ("serve" for journal appends).
	Source string `json:"source"`
	// Sparse6 is the exact labeled graph (graphio sparse6 encoding) the
	// verdict was certified for — the same soundness rule as the LRU: a
	// lookup hits only on an exact labeled match.
	Sparse6 string `json:"sparse6"`
	// Model selects the deviation model, in the wire shape.
	Model ModelDTO `json:"model"`
	// Objective is "sum" or "max".
	Objective string `json:"objective"`
	// StableOnly mirrors CheckRequest.StableOnly.
	StableOnly bool `json:"stable_only,omitempty"`
	// Batched is the request bit older journals recorded as part of the
	// check's identity. Replay ignores it, so lines written with either
	// value index under the one flag-free key; new lines never set it, and
	// atlas corpora never did.
	Batched bool `json:"batched,omitempty"`
	// BatchedRan mirrors VerdictDTO.Batched, the executed-path report.
	// Atlas corpora never set it: they pin the per-agent path.
	BatchedRan bool `json:"batched_ran,omitempty"`
	// Stable is the certified verdict.
	Stable bool `json:"stable"`
	// Witness is the violation witness for unstable graphs.
	Witness *ViolationDTO `json:"witness,omitempty"`
}

// verdict reconstructs the wire verdict the entry persisted.
func (e *StoreEntry) verdict() VerdictDTO {
	return VerdictDTO{Stable: e.Stable, Violation: e.Witness, Batched: e.BatchedRan}
}

// replayKey recomputes the entry's verdict-cache key from its graph and
// spec. Decoding validates the line; entries whose graphs fail to decode
// are skipped by the tolerant readers.
func (e *StoreEntry) replayKey() (string, error) {
	g, err := graphio.FromSparse6(e.Sparse6)
	if err != nil {
		return "", err
	}
	req := CheckRequest{Model: e.Model, Objective: e.Objective, StableOnly: e.StableOnly}
	return checkCacheKey(iso.Certificate(g), req), nil
}

// verdictStore is the persistent side of the verdict cache: an
// append-only JSONL journal of certified verdicts, replayed into an
// in-memory index at boot and appended on every cache-miss certification,
// so a restarted server answers previously certified checks without
// recomputation. All methods are nil-receiver-safe: a server without a
// configured store path carries a nil store.
//
// The index mirrors the LRU's soundness rule — per key, a bucket of
// exact labeled graphs — but is unbounded: the journal is the durable
// record, and its size is governed by compaction (StoreMaxBytes), not
// by eviction.
type verdictStore struct {
	mu         sync.Mutex
	path       string
	f          *os.File
	index      map[string][]storeItem
	items      int
	size       int64 // journal bytes written, drives compaction
	appends    uint64
	fsyncEvery int   // 1 = every append, N = every N appends, 0 = never
	maxBytes   int64 // compact when the journal exceeds this (0 = never)
}

type storeItem struct {
	exact   string
	entry   StoreEntry
	verdict VerdictDTO
}

// openVerdictStore opens (creating if absent) the journal at
// cfg.StorePath, optionally warm-seeding the index from an atlas corpus
// (cfg.StoreSeed: a JSONL file or a directory holding one) before
// replaying the journal, so journaled verdicts win over seeded ones.
// An empty StorePath returns a nil store.
func openVerdictStore(cfg Config) (*verdictStore, error) {
	if cfg.StorePath == "" {
		return nil, nil
	}
	fsyncEvery := 1
	switch {
	case cfg.StoreFsyncEvery > 0:
		fsyncEvery = cfg.StoreFsyncEvery
	case cfg.StoreFsyncEvery < 0:
		fsyncEvery = 0
	}
	s := &verdictStore{
		path:       cfg.StorePath,
		index:      make(map[string][]storeItem),
		fsyncEvery: fsyncEvery,
		maxBytes:   cfg.StoreMaxBytes,
	}
	if cfg.StoreSeed != "" {
		seed := cfg.StoreSeed
		if fi, err := os.Stat(seed); err == nil && fi.IsDir() {
			seed = filepath.Join(seed, "atlas.jsonl")
		}
		if err := s.loadFile(seed); err != nil {
			return nil, fmt.Errorf("serve: store seed %s: %w", seed, err)
		}
	}
	if err := s.loadFile(cfg.StorePath); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: store %s: %w", cfg.StorePath, err)
	}
	f, err := os.OpenFile(cfg.StorePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: store %s: %w", cfg.StorePath, err)
	}
	if fi, err := f.Stat(); err == nil {
		s.size = fi.Size()
	}
	s.f = f
	return s, nil
}

// loadFile replays one JSONL file into the index. Comment ('#') and blank
// lines are skipped; lines that fail to parse or whose graphs fail to
// decode are tolerated and skipped (a torn tail write must not brick the
// boot), except when the file itself cannot be read.
func (s *verdictStore) loadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e StoreEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		key, err := e.replayKey()
		if err != nil {
			continue
		}
		s.insert(key, e.Sparse6, e)
	}
	return sc.Err()
}

// insert records an entry in the index, replacing the verdict of an
// already-present (key, exact) pair (later lines win: journal over seed,
// newer appends over older).
func (s *verdictStore) insert(key, exact string, e StoreEntry) {
	bucket := s.index[key]
	for i := range bucket {
		if bucket[i].exact == exact {
			bucket[i].entry, bucket[i].verdict = e, e.verdict()
			return
		}
	}
	s.index[key] = append(bucket, storeItem{exact: exact, entry: e, verdict: e.verdict()})
	s.items++
}

// get returns the stored verdict for (key, exact graph), if present.
func (s *verdictStore) get(key, exact string) (VerdictDTO, bool) {
	if s == nil {
		return VerdictDTO{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range s.index[key] {
		if it.exact == exact {
			return it.verdict, true
		}
	}
	return VerdictDTO{}, false
}

// append journals a freshly certified verdict and indexes it. The write
// is fsynced per the configured policy; exceeding the size bound triggers
// a compaction that rewrites one line per indexed (key, exact) pair.
func (s *verdictStore) append(key, exact string, req CheckRequest, v VerdictDTO) error {
	if s == nil {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(exact))
	e := StoreEntry{
		ID:         fmt.Sprintf("sv-%016x", h.Sum64()),
		Kind:       "verdict",
		Source:     "serve",
		Sparse6:    exact,
		Model:      req.Model,
		Objective:  objectiveName(req.Objective),
		StableOnly: req.StableOnly,
		BatchedRan: v.Batched,
		Stable:     v.Stable,
		Witness:    v.Violation,
	}
	b, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	b = append(b, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(key, exact, e)
	if _, err := s.f.Write(b); err != nil {
		return err
	}
	s.size += int64(len(b))
	s.appends++
	if s.fsyncEvery > 0 && s.appends%uint64(s.fsyncEvery) == 0 {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	if s.maxBytes > 0 && s.size > s.maxBytes {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal with exactly one line per indexed
// (key, exact) pair — the live verdicts — via a temp file and rename, so
// a crash mid-compaction leaves either the old or the new journal intact.
func (s *verdictStore) compactLocked() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var size int64
	for _, bucket := range s.index {
		for i := range bucket {
			b, err := json.Marshal(&bucket[i].entry)
			if err != nil {
				f.Close()
				return err
			}
			b = append(b, '\n')
			if _, err := f.Write(b); err != nil {
				f.Close()
				return err
			}
			size += int64(len(b))
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	s.f.Close()
	nf, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f, s.size = nf, size
	return nil
}

// len returns the number of indexed (key, exact) verdicts.
func (s *verdictStore) len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items
}

// close releases the journal file handle.
func (s *verdictStore) close() error {
	if s == nil || s.f == nil {
		return nil
	}
	return s.f.Close()
}
