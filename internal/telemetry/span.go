package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// SpanEvent is one completed span: a named interval with the fixed attribute
// set the barrier pipeline needs (rank, stage, peer, tag; -1 when not
// applicable). Times are offsets from the tracer's epoch, so events from
// different ranks of one in-process mesh share a clock.
type SpanEvent struct {
	Name  string
	Rank  int
	Stage int
	Peer  int
	Tag   int
	Start time.Duration
	Dur   time.Duration
}

// End returns the span's completion offset from the tracer epoch.
func (e SpanEvent) End() time.Duration { return e.Start + e.Dur }

// Tracer collects spans from concurrent callers. A nil Tracer ignores all
// operations: Begin on a nil tracer returns an inert Span whose End is a
// pointer check, which is the entire disabled-path cost.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	evs   []SpanEvent
	// ring state, active when lim > 0: evs is a circular buffer of at most
	// lim events and head is the index of the oldest one.
	lim     int
	head    int
	dropped uint64
}

// NewTracer returns a tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Epoch returns the tracer's epoch (the zero point of all event offsets).
// The zero time on a nil tracer.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// SetCap bounds the tracer to the most recent n spans; older spans are
// evicted on append and counted by Dropped. n <= 0 restores the default
// unbounded behaviour. Existing spans beyond the new bound are evicted
// oldest-first. No-op on a nil tracer.
func (t *Tracer) SetCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snapshotLocked()
	if n > 0 && len(cur) > n {
		t.dropped += uint64(len(cur) - n)
		cur = cur[len(cur)-n:]
	}
	if n > 0 {
		t.evs = make([]SpanEvent, 0, n)
		t.evs = append(t.evs, cur...)
	} else {
		t.evs = cur
	}
	t.lim = n
	t.head = 0
}

// Dropped reports how many spans have been evicted by the cap set with
// SetCap. Zero on a nil or unbounded tracer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is an in-flight interval returned by Begin; call End exactly once.
type Span struct {
	tr    *Tracer
	name  string
	rank  int
	stage int
	peer  int
	tag   int
	start time.Time
}

// Begin opens a span. rank, stage, and peer are recorded verbatim (use -1
// for "not applicable"). On a nil tracer it returns an inert span.
func (t *Tracer) Begin(name string, rank, stage, peer int) Span {
	return t.BeginTag(name, rank, stage, peer, -1)
}

// BeginTag opens a span that additionally records a message tag (use -1 for
// "no tag"; Begin records -1). On a nil tracer it returns an inert span.
func (t *Tracer) BeginTag(name string, rank, stage, peer, tag int) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, name: name, rank: rank, stage: stage, peer: peer, tag: tag, start: time.Now()}
}

// End completes the span and records it. No-op on a span from a nil tracer.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	now := time.Now()
	ev := SpanEvent{
		Name:  s.name,
		Rank:  s.rank,
		Stage: s.stage,
		Peer:  s.peer,
		Tag:   s.tag,
		Start: s.start.Sub(s.tr.epoch),
		Dur:   now.Sub(s.start),
	}
	s.tr.mu.Lock()
	if s.tr.lim > 0 && len(s.tr.evs) == s.tr.lim {
		s.tr.evs[s.tr.head] = ev
		s.tr.head = (s.tr.head + 1) % s.tr.lim
		s.tr.dropped++
	} else {
		s.tr.evs = append(s.tr.evs, ev)
	}
	s.tr.mu.Unlock()
}

// snapshotLocked copies the recorded spans in append order. Caller holds mu.
func (t *Tracer) snapshotLocked() []SpanEvent {
	out := make([]SpanEvent, 0, len(t.evs))
	out = append(out, t.evs[t.head:]...)
	out = append(out, t.evs[:t.head]...)
	return out
}

// Events returns a snapshot of the recorded spans sorted by start time.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.snapshotLocked()
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Take drains the tracer: it returns the recorded spans sorted by start
// time and clears them in one atomic step, so concurrent recording between
// snapshot and reset cannot lose events. The epoch and drop counter are
// kept. Nil on a nil tracer.
func (t *Tracer) Take() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.snapshotLocked()
	t.evs = t.evs[:0]
	t.head = 0
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Reset discards recorded spans (the epoch is kept, so offsets from before
// and after a reset stay comparable). No-op on a nil tracer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.evs = nil
	t.head = 0
	t.mu.Unlock()
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Timestamps
// and durations are microseconds, per the trace-event format spec; the rank
// becomes the thread id so chrome://tracing and Perfetto draw one swimlane
// per rank.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]int `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the recorded spans as Chrome trace-event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. One swimlane per
// rank; stage, peer, and tag attributes ride along as event args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceEvents(w, t.Events())
}

// WriteChromeTraceEvents renders an explicit event slice as Chrome
// trace-event JSON. This is the export path for event windows that have
// already been drained out of a tracer (flight-recorder dumps, merged
// timelines).
func WriteChromeTraceEvents(w io.Writer, evs []SpanEvent) error {
	doc := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(evs)), DisplayTimeUnit: "ms"}
	for _, e := range evs {
		tid := e.Rank
		if tid < 0 {
			tid = 0
		}
		ce := chromeEvent{
			Name: e.Name,
			Ph:   "X",
			PID:  0,
			TID:  tid,
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Dur.Nanoseconds()) / 1e3,
		}
		if e.Stage >= 0 || e.Peer >= 0 || e.Tag >= 0 {
			ce.Args = map[string]int{}
			if e.Stage >= 0 {
				ce.Args["stage"] = e.Stage
			}
			if e.Peer >= 0 {
				ce.Args["peer"] = e.Peer
			}
			if e.Tag >= 0 {
				ce.Args["tag"] = e.Tag
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteChromeTraceFile writes the Chrome trace JSON to the given path.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	return WriteChromeTraceEventsFile(path, t.Events())
}

// WriteChromeTraceEventsFile writes an explicit event slice as Chrome trace
// JSON to the given path.
func WriteChromeTraceEventsFile(path string, evs []SpanEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTraceEvents(f, evs); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: writing trace %s: %w", path, err)
	}
	return f.Close()
}
