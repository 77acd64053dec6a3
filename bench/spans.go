package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its op id; parent is the index of the enclosing span in the recorder (-1
// for an op's root span).
type span struct {
	Name   string
	Start  int64 // ns since the recorder's origin
	End    int64
	Parent int
	Op     int
	Lane   int // client / worker goroutine
}

// recorder keeps spans in memory until the run ends. A nil *recorder is a
// valid disabled recorder: begin and end return at once without reading the
// clock, so untraced runs pay one pointer test per boundary.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op, Lane: lane})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known (the server-side time
// a response reports about itself).
func (r *recorder) add(name string, start, end time.Time, parent, op, lane int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
		Parent: parent, Op: op, Lane: lane})
	r.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover (nanoseconds).
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered[i]
	}
	return out
}

// coverage is the median over root spans of the share of the root's
// duration its direct children cover: how much of an op the layer spans
// account for.
func coverage(spans []span) float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var shares []float64
	for i, s := range spans {
		if s.Parent < 0 && s.End > s.Start {
			shares = append(shares, float64(covered[i])/float64(s.End-s.Start))
		}
	}
	return median(shares)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// (loadable in chrome://tracing and ui.perfetto.dev); times are in µs.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: map[string]int{"op": s.Op, "parent": s.Parent}}
	}
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
