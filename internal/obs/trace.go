package obs

// Hierarchical span tracing. A Tracer collects a forest of timed spans;
// spans nest by creating children from a parent span. A Tracer is safe
// for concurrent use, though a request's solve records its spans from
// the one goroutine it runs on.
//
// Spans record only into the tracer a request Scope owns. Unscoped work
// records nothing: StartSpanCtx on a context without a scope returns a
// nil *Span, and every *Span method is nil-safe, so an instrumented hot
// path pays a context lookup plus a nil check and allocates nothing
// (pinned by TestNoopTracerZeroAlloc).

import (
	"sync"
	"time"
)

// Tracer records spans against a fixed epoch. Create with NewTracer;
// a nil *Tracer is the disabled tracer and is safe to use.
type Tracer struct {
	//joinlint:lockrank obs-tracer 20
	mu    sync.Mutex
	epoch time.Time
	spans []*Span // creation order; parents always precede children
}

// Span is one timed, named region of work, possibly nested. A nil *Span
// (from a disabled tracer) ignores every method call.
type Span struct {
	t      *Tracer
	parent *Span
	id     int // 1-based position in the tracer's span list
	depth  int
	name   string
	start  time.Duration // since tracer epoch
	dur    time.Duration // zero until End
	ended  bool
	attrs  map[string]int64
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) newSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{t: t, parent: parent, name: name, start: time.Since(t.epoch)}
	if parent != nil {
		s.depth = parent.depth + 1
	}
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s
}

// Start opens a root span. Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Start(name string) *Span { return t.newSpan(nil, name) }

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Start opens a child span. Nil-safe.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(s, name)
}

// End closes the span, fixing its duration. Nil-safe; a second End is
// ignored so `defer sp.End()` composes with early explicit ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.t.epoch) - s.start
		s.ended = true
	}
	s.t.mu.Unlock()
}

// SetInt attaches an integer attribute to the span. Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64, 4)
	}
	s.attrs[key] = v
	s.t.mu.Unlock()
}

// SpanRecord is the frozen form of one span and the flight recorder's
// span layout: ids are 1-based creation order, parent 0 means a root
// span. An unended span has dur_ns -1.
type SpanRecord struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Depth   int              `json:"depth"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	DurNs   int64            `json:"dur_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// Records freezes the tracer's current spans in creation order, so
// every parent precedes its children. Nil-safe: a nil tracer has no
// records.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.spans))
	for _, s := range t.spans {
		rec := SpanRecord{
			ID:      s.id,
			Depth:   s.depth,
			Name:    s.name,
			StartNs: int64(s.start),
			DurNs:   int64(s.dur),
		}
		if len(s.attrs) > 0 {
			// Copy under the lock: the span may gain attributes while the
			// records are marshalled by the caller.
			rec.Attrs = make(map[string]int64, len(s.attrs))
			for k, v := range s.attrs {
				rec.Attrs[k] = v
			}
		}
		if s.parent != nil {
			rec.Parent = s.parent.id
		}
		if !s.ended {
			rec.DurNs = -1
		}
		out = append(out, rec)
	}
	return out
}
