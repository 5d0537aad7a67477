package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system under test:
// an artifact generator, an HTTP request, a worker process, a store fill.
// Times are Unix nanoseconds, so spans recorded by worker processes merge
// with the parent's without re-basing; their IDs are renumbered on adoption.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span // span i has ID i+1
}

// open starts a span under parent (0 for a root) and returns its ID.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// adopt appends spans recorded by another tracer (a worker process's),
// giving them fresh IDs and re-parenting their roots under parent. Each
// span must follow its own parent in spans, as open records them.
func (t *tracer) adopt(spans []span, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := map[int]int{0: parent}
	for _, s := range spans {
		ids[s.ID] = len(t.spans) + 1
		s.ID, s.Parent = ids[s.ID], ids[s.Parent]
		t.spans = append(t.spans, s)
	}
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
