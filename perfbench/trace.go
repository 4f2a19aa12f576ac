package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the module it names. The benchmark makes each call
// itself, one after another, so spans do not nest.
type span struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer started
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; dump writes them out once the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		stop := time.Since(t.t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: int64(start), End: int64(stop)})
	}
}

// timeCall runs fn inside a span and returns its duration.
func (t *tracer) timeCall(name string, fn func()) time.Duration {
	end := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return d
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}
