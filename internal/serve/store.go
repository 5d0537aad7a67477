// Package serve wraps the experiment harness (exp.Runner) in a
// long-running simulation service: a bounded worker pool and job queue, a
// disk-backed content-addressed result cache with singleflight, SSE
// progress streaming, and HTTP handlers serving figures and simulation
// cells as JSON/SVG artifacts (DESIGN.md §8).
package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"tnpu/internal/exp"
)

// Source classifies where a Store lookup's bytes came from.
type Source string

// Lookup outcomes, in decreasing cheapness.
const (
	// SourceDisk: a valid entry was read from the cache directory.
	SourceDisk Source = "disk"
	// SourceFlight: another request was already computing the same key;
	// this lookup waited for it (in-process singleflight).
	SourceFlight Source = "flight"
	// SourceCompute: this lookup ran the computation and stored it.
	SourceCompute Source = "compute"
)

// Store is a disk-backed content-addressed result cache. Keys are hex
// digests (exp.Digest over code version + logical cell identity), so an
// entry is valid for exactly as long as the code that produced it: a code
// version bump changes every digest and strands — rather than serves —
// stale results. Concurrent lookups of one key are singleflighted within
// the process; across processes the write protocol (temp file + atomic
// rename of a checksummed entry) makes concurrent writers race safely:
// both compute, both write, either rename wins, and the contents are
// identical by construction.
type Store struct {
	dir string

	mu       sync.Mutex
	inflight map[string]*flight

	// StoreStats counters.
	lookups   atomic.Uint64
	diskHits  atomic.Uint64
	flights   atomic.Uint64
	computes  atomic.Uint64
	stores    atomic.Uint64
	corrupt   atomic.Uint64
	errors    atomic.Uint64
	diskBytes atomic.Uint64
}

// flight is one in-progress computation; latecomers block on done.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// NewStore opens (creating if needed) a cache directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: cache directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &Store{dir: dir, inflight: make(map[string]*flight)}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// entryMagic heads every cache entry; the version suffix is the entry
// *format* version (bumped if the framing changes), independent of the
// simulator code version that is part of the key.
const entryMagic = "TNPUCACHE1"

// path maps a key to its entry file. Keys are validated hex digests, so
// they are safe as file names and cannot traverse out of the directory.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".entry")
}

// validKey accepts only lowercase-hex digests of plausible length.
func validKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

// errAbandoned is what flight waiters receive when the computation they
// waited on panicked instead of returning.
var errAbandoned = errors.New("serve: the computation for this key panicked; retry to recompute")

// Get serves key from cache if possible, otherwise runs compute (exactly
// once per key across concurrent callers) and persists the result. Errors
// are never cached: a failed computation is retried by the next lookup.
// A panicking compute is a failure too: the flight is released (waiters
// get errAbandoned, the next lookup recomputes) and the panic continues in
// this caller.
func (s *Store) Get(key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	s.lookups.Add(1)
	if !validKey(key) {
		s.errors.Add(1)
		return nil, "", fmt.Errorf("serve: invalid cache key %q", key)
	}

	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.flights.Add(1)
		<-f.done
		return f.data, SourceFlight, f.err
	}
	f := &flight{done: make(chan struct{}), err: errAbandoned}
	s.inflight[key] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
	}()

	src := SourceDisk
	data, err := s.read(key)
	if data == nil && err == nil {
		src = SourceCompute
		s.computes.Add(1)
		data, err = compute()
		if err == nil {
			if werr := s.write(key, data); werr != nil {
				// The result is good even if persisting it failed
				// (disk full, read-only cache); serve it and count
				// the store error.
				s.errors.Add(1)
			}
		}
	} else if data != nil {
		s.diskHits.Add(1)
	}
	if err != nil {
		s.errors.Add(1)
	}
	f.data, f.err = data, err
	return data, src, err
}

// read returns the entry bytes for key, or (nil, nil) on a miss. A
// corrupted or truncated entry — bad magic, checksum mismatch, short
// body — is deleted and reported as a miss, so the caller recomputes.
func (s *Store) read(key string) ([]byte, error) {
	raw, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: cache read: %w", err)
	}
	body, ok := decodeEntry(raw)
	if !ok {
		s.corrupt.Add(1)
		// Remove the bad entry so the recomputed result can take its
		// place; ignore the error (another process may have raced the
		// removal or already replaced it).
		os.Remove(s.path(key)) //tnpu:errok
		return nil, nil
	}
	return body, nil
}

// write persists body under key via temp file + atomic rename, so a
// reader never observes a partially written entry and concurrent writers
// of one key cannot interleave.
func (s *Store) write(key string, body []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-entry-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //tnpu:errok (no-op after a successful rename)
	w := bufio.NewWriter(tmp)
	sum := sha256.Sum256(body)
	fmt.Fprintf(w, "%s %s %d\n", entryMagic, hex.EncodeToString(sum[:]), len(body))
	w.Write(body) //tnpu:errok (flush below surfaces the error)
	if err := w.Flush(); err != nil {
		tmp.Close() //tnpu:errok
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return err
	}
	s.stores.Add(1)
	s.diskBytes.Add(uint64(len(body)))
	return nil
}

// decodeEntry validates framing: magic, body checksum, exact length.
func decodeEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := bytes.Fields(raw[:nl])
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, false
	}
	n, err := strconv.Atoi(string(fields[2]))
	if err != nil || n < 0 {
		return nil, false
	}
	body := raw[nl+1:]
	if len(body) != n {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(fields[1]) {
		return nil, false
	}
	return body, true
}

// StoreStats is a snapshot of the cache counters.
type StoreStats struct {
	// Lookups is total Get calls.
	Lookups uint64 `json:"lookups"`
	// DiskHits served a valid on-disk entry.
	DiskHits uint64 `json:"disk_hits"`
	// FlightHits waited on a concurrent computation of the same key.
	FlightHits uint64 `json:"flight_hits"`
	// Computes ran the computation (disk+flight both missed).
	Computes uint64 `json:"computes"`
	// Stores persisted a fresh entry.
	Stores uint64 `json:"stores"`
	// Corrupt entries were rejected (and recomputed).
	Corrupt uint64 `json:"corrupt"`
	// Errors counts failed lookups, computations, and store writes.
	Errors uint64 `json:"errors"`
	// StoredBytes is the body volume written this process.
	StoredBytes uint64 `json:"stored_bytes"`
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Lookups:     s.lookups.Load(),
		DiskHits:    s.diskHits.Load(),
		FlightHits:  s.flights.Load(),
		Computes:    s.computes.Load(),
		Stores:      s.stores.Load(),
		Corrupt:     s.corrupt.Load(),
		Errors:      s.errors.Load(),
		StoredBytes: s.diskBytes.Load(),
	}
}

// Hits is disk + flight hits: lookups that did not recompute.
func (st StoreStats) Hits() uint64 { return st.DiskHits + st.FlightHits }

// CellDigest addresses one simulation cell under the store's code-version
// scheme; kept here so handlers and tests share one spelling.
func CellDigest(codeVersion string, k exp.CellKey) string {
	return k.Digest(codeVersion)
}
