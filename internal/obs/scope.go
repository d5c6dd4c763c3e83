package obs

// Request-scoped observability. A Scope is a per-request child registry
// plus a private span tracer: instrumentation sites that thread a
// context record into the scope carried by it, so two concurrent solves
// keep fully disjoint counters and span forests. On Close the scope
// rolls its registry up into the process-global Default by addition —
// the global registry always equals the sum of every closed scope plus
// whatever ran unscoped — and hands its summary to the flight recorder.
// Spans record only into a scope's tracer, so unscoped work records
// none.
//
// Hot paths do not pay for scoping: a *CounterVar (or TimerVar /
// HistogramVar) resolves the context once, outside the loop, via In(ctx)
// and then uses the returned plain *Counter — the same single atomic add
// as before, preserving the //joinpebble:hotpath no-alloc invariant.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultFiredTotal reports the process-wide number of fault-site
// activations. internal/faultinject wires it at init; it stays nil in
// binaries that do not link that package. Scopes sample it at open and
// close to flag any request during which a site fired — process-wide,
// so under concurrent injection a bystander scope may be flagged too,
// which for a flight recorder is the right kind of false positive.
var FaultFiredTotal func() int64

// Scope flag values attached by the engine and by Close itself.
const (
	FlagDegraded = "degraded" // the solve fell down at least one ladder rung
	FlagPanic    = "panic"    // a recovered panic was part of the attempt chain
	FlagFault    = "fault"    // a fault-injection site fired while the scope was open
	FlagError    = "error"    // the request failed outright
)

// Bookkeeping metrics, recorded on the global registry directly (never
// scoped — they describe the scope machinery itself).
var (
	cScopeOpened  = Default.Counter("obs/scope/opened")
	cScopeClosed  = Default.Counter("obs/scope/closed")
	cScopeFlagged = Default.Counter("obs/scope/flagged")
)

var scopeSeq atomic.Int64

// scopeTraceDir, when set, makes every Scope.Close write its span forest
// as a Chrome trace_event JSON file into the directory (the -trace-out
// flag in cmdutil).
var scopeTraceDir atomic.Pointer[string]

// SetScopeTraceDir directs every subsequently closed Scope to dump its
// trace into dir as Chrome trace_event JSON ("" disables). The caller
// is responsible for the directory existing.
func SetScopeTraceDir(dir string) {
	if dir == "" {
		scopeTraceDir.Store(nil)
		return
	}
	scopeTraceDir.Store(&dir)
}

// ScopeEvent is one step of a request's attempt provenance — the engine
// records one per ladder rung, so a degraded solve's summary shows which
// solvers failed, with what error, before one answered.
type ScopeEvent struct {
	Name  string `json:"name"`
	Err   string `json:"err,omitempty"`
	DurNs int64  `json:"dur_ns"`
}

// ScopeSummary is the frozen footprint of a closed scope: identity,
// wall-clock window, flags, attempt provenance, and the request's own
// metric snapshot.
type ScopeSummary struct {
	ID        int64             `json:"id"`
	Name      string            `json:"name"`
	Start     time.Time         `json:"start"`
	DurNs     int64             `json:"dur_ns"`
	Flags     []string          `json:"flags,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	Events    []ScopeEvent      `json:"events,omitempty"`
	SpanCount int               `json:"span_count"`
	Metrics   *Snapshot         `json:"metrics,omitempty"`
}

// Scope is a per-request metric registry and span collector. Create with
// NewScope, thread with WithScope, and Close exactly once when the
// request finishes. All methods are safe for concurrent use and
// nil-safe, so unscoped code paths cost a context lookup and nothing
// else.
type Scope struct {
	id        int64
	name      string
	reg       *Registry
	tracer    *Tracer
	start     time.Time
	began     time.Time // monotonic anchor for the summary duration
	faultBase int64
	recorder  *FlightRecorder

	//joinlint:lockrank obs-scope 10
	mu     sync.Mutex
	flags  []string
	notes  map[string]string
	events []ScopeEvent
	closed bool
}

// NewScope opens a scope named name (a span-grammar path, e.g.
// "engine/solve"). The scope records into DefaultRecorder on Close;
// tests may swap the recorder with SetRecorder before closing.
func NewScope(name string) *Scope {
	s := &Scope{
		id:       scopeSeq.Add(1),
		name:     name,
		reg:      NewRegistry(),
		tracer:   NewTracer(),
		start:    Now(),
		began:    time.Now(),
		recorder: DefaultRecorder,
	}
	if FaultFiredTotal != nil {
		s.faultBase = FaultFiredTotal()
	}
	cScopeOpened.Inc()
	return s
}

// Tracer returns the scope's private tracer (nil — the disabled tracer —
// for a nil scope).
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// StartSpan opens a root span on the scope's tracer. Nil-safe.
func (s *Scope) StartSpan(name string) *Span { return s.Tracer().Start(name) }

// SetRecorder redirects the summary Close hands off (nil drops it).
// Call before Close; tests use it to observe recordings in isolation.
func (s *Scope) SetRecorder(fr *FlightRecorder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.recorder = fr
	s.mu.Unlock()
}

// Flag marks the scope with one of the Flag* values (deduplicated).
// A flagged scope's full span forest is retained by the flight recorder.
func (s *Scope) Flag(flag string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.flags {
		if f == flag {
			return
		}
	}
	s.flags = append(s.flags, flag)
}

// Note attaches a key/value annotation (last write wins).
func (s *Scope) Note(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.notes == nil {
		s.notes = make(map[string]string, 4)
	}
	s.notes[key] = value
	s.mu.Unlock()
}

// Event appends one attempt-provenance step: name identifies the step
// (a solver name, a rung), err is empty on success, d is the elapsed
// time of the step.
func (s *Scope) Event(name, err string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, ScopeEvent{Name: name, Err: err, DurNs: int64(d)})
	s.mu.Unlock()
}

// Snapshot captures the scope's private registry.
func (s *Scope) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	return s.reg.Snapshot()
}

// summary freezes the scope's footprint. Callers must hold s.mu.
func (s *Scope) summaryLocked(spanCount int) ScopeSummary {
	sum := ScopeSummary{
		ID:        s.id,
		Name:      s.name,
		Start:     s.start,
		DurNs:     time.Since(s.began).Nanoseconds(),
		Flags:     append([]string(nil), s.flags...),
		Events:    append([]ScopeEvent(nil), s.events...),
		SpanCount: spanCount,
		Metrics:   s.reg.Snapshot(),
	}
	if len(s.notes) > 0 {
		sum.Notes = make(map[string]string, len(s.notes))
		for k, v := range s.notes {
			sum.Notes[k] = v
		}
	}
	return sum
}

// Close finishes the scope: it flags a fault-site firing, rolls the
// private registry up into the global Default (global = sum of scopes),
// hands the summary — with the full span forest when flagged — to the
// flight recorder, and writes a per-request Chrome trace file when
// SetScopeTraceDir is in effect. Idempotent and nil-safe; the first
// call returns the summary, later calls return a zero summary.
func (s *Scope) Close() ScopeSummary {
	if s == nil {
		return ScopeSummary{}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ScopeSummary{}
	}
	s.closed = true
	if FaultFiredTotal != nil && FaultFiredTotal() > s.faultBase {
		s.flags = append(s.flags, FlagFault)
	}
	spans := s.tracer.Records()
	sum := s.summaryLocked(len(spans))
	recorder := s.recorder
	s.mu.Unlock()

	Default.addFrom(s.reg)
	cScopeClosed.Inc()
	if len(sum.Flags) > 0 {
		cScopeFlagged.Inc()
	}
	if recorder != nil {
		recorder.Record(sum, spans)
	}
	if dir := scopeTraceDir.Load(); dir != nil {
		// Trace dumps are best-effort: a full disk must not fail the solve
		// that produced the trace.
		_ = s.writeTraceFile(*dir, spans)
	}
	return sum
}

// writeTraceFile dumps spans as Chrome trace_event JSON into dir under a
// name derived from the scope identity.
func (s *Scope) writeTraceFile(dir string, spans []SpanRecord) error {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, spans); err != nil {
		return err
	}
	name := fmt.Sprintf("scope-%06d-%s.trace.json", s.id, strings.ReplaceAll(s.name, "/", "-"))
	return AtomicWriteFile(dir+"/"+name, []byte(sb.String()), 0o644)
}

// scopeKey is the context key carrying a *Scope.
type scopeKey struct{}

// WithScope returns a context carrying s; instrumentation reached
// through it records into the scope instead of the global registry.
func WithScope(ctx context.Context, s *Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFrom extracts the scope carried by ctx (nil when unscoped — the
// returned nil *Scope ignores every method call).
func ScopeFrom(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}

// StartSpanCtx opens a root span on the scope carried by ctx. Unscoped,
// it records nothing and is free: a context lookup, a nil check, no
// allocation.
func StartSpanCtx(ctx context.Context, name string) *Span {
	return ScopeFrom(ctx).StartSpan(name)
}

// CounterVar is a scope-aware counter binding: one package-level var per
// instrumentation site, resolving per call to the scope's counter when
// ctx carries one and to the eagerly-registered global counter otherwise.
// Hot loops call In(ctx) once outside the loop and use the plain
// *Counter it returns.
type CounterVar struct {
	name   string
	global *Counter
}

// ScopedCounter binds name on the Default registry and returns the
// scope-aware handle.
func ScopedCounter(name string) *CounterVar {
	return &CounterVar{name: name, global: Default.Counter(name)}
}

// In resolves the counter for ctx: the scope's when present, else the
// global one. The result is a plain *Counter — hoist it out of loops.
func (v *CounterVar) In(ctx context.Context) *Counter {
	if s := ScopeFrom(ctx); s != nil {
		return s.reg.Counter(v.name)
	}
	return v.global
}

// Inc adds 1 to the counter resolved for ctx.
func (v *CounterVar) Inc(ctx context.Context) { v.In(ctx).Inc() }

// Add adds n to the counter resolved for ctx.
func (v *CounterVar) Add(ctx context.Context, n int64) { v.In(ctx).Add(n) }

// TimerVar is the scope-aware analogue of CounterVar for timers.
type TimerVar struct {
	name   string
	global *Timer
}

// ScopedTimer binds name on the Default registry and returns the
// scope-aware handle.
func ScopedTimer(name string) *TimerVar {
	return &TimerVar{name: name, global: Default.Timer(name)}
}

// In resolves the timer for ctx: the scope's when present, else the
// global one.
func (v *TimerVar) In(ctx context.Context) *Timer {
	if s := ScopeFrom(ctx); s != nil {
		return s.reg.Timer(v.name)
	}
	return v.global
}

// Observe records d on the timer resolved for ctx.
func (v *TimerVar) Observe(ctx context.Context, d time.Duration) { v.In(ctx).Observe(d) }

// HistogramVar is the scope-aware analogue of CounterVar for histograms.
// A scope-side histogram takes the global one's layout, so rollup always
// merges bucket by bucket.
type HistogramVar struct {
	name   string
	global *Histogram
}

// ScopedHistogram binds name on the Default registry and returns the
// scope-aware handle. bounds apply only if name is not bound yet: the
// first registration's layout wins, for the scopes too.
func ScopedHistogram(name string, bounds []int64) *HistogramVar {
	return &HistogramVar{name: name, global: Default.Histogram(name, bounds)}
}

// In resolves the histogram for ctx: the scope's when present, else the
// global one.
func (v *HistogramVar) In(ctx context.Context) *Histogram {
	if s := ScopeFrom(ctx); s != nil {
		return s.reg.Histogram(v.name, v.global.bounds)
	}
	return v.global
}

// Observe records one value on the histogram resolved for ctx.
func (v *HistogramVar) Observe(ctx context.Context, val int64) { v.In(ctx).Observe(val) }
