package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into a module's public surface.
// Counts measured at the same boundary ride along in N, so every per-layer
// ratio can be re-derived from the trace file alone. Pass is the pass the
// span belongs to: setupPass for set-up and probe work, 0 for the cold
// pass, 1.. for the timed ones.
type span struct {
	ID     int                `json:"id"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"`
	Pass   int                `json:"pass"`
	N      map[string]float64 `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

const setupPass = -1

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, and the harness installs none of
// its wrappers (timing Conn, CheckRound seam), so end-to-end metrics are
// measured with nothing of the tracing on the path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (0 = none) and returns its id.
func (t *tracer) start(name string, parent, pass int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Pass: pass})
	return len(t.spans)
}

// end closes span id, attaching the counts measured at its boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = counts
}

// annotate adds a count to a span that has already ended: the verdict of a
// check that the pass's span must not cover.
func (t *tracer) annotate(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.spans[id-1].N; n != nil {
		n[key] = v
	}
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace flush: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace flush: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace flush %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace flush %s: %w", path, err)
	}
	return nil
}

// readTrace loads a trace file written by flush.
func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("read trace %s: span %d: %w", path, len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover. Children of one parent that run concurrently (the
// shard goroutines under one session) can cover more than the parent's
// wall; self time is then floored at zero.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}
