// Package trace is the repository's zero-dependency, deterministic in-process
// span tracer. It instruments the whole analysis pipeline — HTTP receive,
// queue wait, singleflight leadership, cache lookups, GDL parse, table build,
// per-conflict search, repair-candidate validation, persist append/snapshot —
// without importing anything outside the standard library, so the search core
// can carry its instrumentation permanently.
//
// Two properties shape the design:
//
//  1. Disabled tracing costs one atomic load on the hot path. When no trace
//     is live anywhere in the process (the default — nothing is traced until
//     someone calls New), Start/StartSeq return immediately after a single
//     atomic counter load, allocate nothing, and leave the context
//     untouched. This is the same discipline internal/faults uses for its
//     injection points, and it is what lets spans live inside the search
//     loops instead of behind build tags.
//
//  2. Span trees are deterministic. A span's ID is a pure function of its
//     trace ID, its path from the root, and its sibling sequence number —
//     never of wall-clock, goroutine identity, or scheduling order. Spans
//     started concurrently (the per-conflict searches, repair validations)
//     pass an explicit sequence number (StartSeq with the conflict or
//     candidate index); sequential spans draw from their parent's counter,
//     which is deterministic because they are sequential. The canonical
//     rendering (Trace.Canonical) sorts children by sequence and omits
//     timestamps and attributes marked volatile, so the canonical tree is
//     byte-identical across -j worker counts and across replayed
//     fault schedules.
//
//  3. One clock per phase. A phase whose duration is also reported outside
//     the trace (response timings, metrics, -stats) opens with Time or Root:
//     the returned Timer's End computes that figure from the same two clock
//     readings it stamps on the span, traced or not.
//
// Finished traces land in a bounded ring buffer (Tracer), which cexd serves
// at /debug/traces and the CLIs dump to a file via -trace-out. Export forms:
// structured JSON (TraceJSON) and the Chrome trace-event format readable by
// chrome://tracing and Perfetto (Chrome).
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// liveTraces counts traces that have been started and not yet finished,
// process-wide. The zero state is the disabled fast path: every
// instrumentation helper checks it first with a single atomic load and
// returns before touching the context, the clock, or the allocator.
var liveTraces atomic.Int64

// Active reports whether any trace is live in the process. Instrumented code
// never needs to call this — the Start helpers check it themselves — but
// harnesses use it to assert the disabled state between runs.
func Active() bool { return liveTraces.Load() > 0 }

// Tracer retains finished traces in a bounded ring buffer: the newest
// Capacity traces are kept, older ones are dropped. A Tracer is safe for
// concurrent use; the zero value (or a nil *Tracer) discards every trace and
// never enables tracing.
type Tracer struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total int64
}

// NewTracer returns a tracer retaining the last capacity finished traces.
// capacity <= 0 returns nil: tracing stays disabled.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{buf: make([]*Trace, 0, capacity)}
}

// add inserts a finished trace into the ring.
func (tr *Tracer) add(t *Trace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.buf) < cap(tr.buf) {
		tr.buf = append(tr.buf, t)
	} else {
		tr.buf[tr.next] = t
		tr.next = (tr.next + 1) % cap(tr.buf)
	}
	tr.total++
}

// Traces returns the retained traces, oldest first.
func (tr *Tracer) Traces() []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Trace, 0, len(tr.buf))
	if len(tr.buf) == cap(tr.buf) {
		out = append(out, tr.buf[tr.next:]...)
		out = append(out, tr.buf[:tr.next]...)
	} else {
		out = append(out, tr.buf...)
	}
	return out
}

// Len returns the number of retained traces.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.buf)
}

// Total returns the number of traces ever finished into this tracer,
// including ones the ring has since dropped.
func (tr *Tracer) Total() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// Trace is one request's (or one run's) span tree, assembled as spans start
// and finish. Spans are appended under the trace mutex. Finishing seals the
// trace: new spans and attribute writes are dropped and any still-open span
// is end-stamped, so the tree the ring serves to readers is immutable even
// when a watchdog-abandoned worker goroutine is still running against it.
type Trace struct {
	tracer *Tracer
	id     string
	root   *Span // its start reading is the trace's start

	finished atomic.Bool

	mu    sync.Mutex
	spans []*Span
}

// ID returns the trace identifier (the request ID on cexd, the run label in
// the CLIs).
func (t *Trace) ID() string { return t.id }

// Spans returns the trace's spans in start order (which is nondeterministic
// under concurrency — use Canonical or the export forms for stable order).
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// finish seals the trace and moves it into the tracer's ring, decrementing
// the live counter. Idempotent: only the first root End finishes. Sealing
// stamps an end time on every span still open (a watchdog-abandoned worker
// may never End its spans) before the ring can serve the trace, so readers
// see a stable tree.
func (t *Trace) finish() {
	if !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	now := time.Now()
	for _, s := range spans {
		s.mu.Lock()
		if s.end.IsZero() {
			s.end = now
		}
		s.mu.Unlock()
	}
	liveTraces.Add(-1)
	if t.tracer != nil {
		t.tracer.add(t)
	}
}

// Attr is one span attribute. Volatile attributes carry values derived from
// wall-clock or from mode-dependent work counts (elapsed times, expansion
// tallies, time-bank balances); they appear in the JSON and Chrome exports
// but are excluded from the canonical determinism rendering.
type Attr struct {
	Key      string
	Val      any
	Volatile bool
}

// Span is one timed operation within a trace. All methods are nil-safe: a
// disabled Start returns a nil span, and instrumented code calls Set/End on
// it unconditionally.
type Span struct {
	trace  *Trace
	parent *Span
	name   string
	id     uint64
	seq    uint64

	childSeq atomic.Uint64

	start time.Time // carries the monotonic reading for durations
	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's deterministic identifier (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// ParentID returns the parent span's identifier (0 for the root or nil).
func (s *Span) ParentID() uint64 {
	if s == nil || s.parent == nil {
		return 0
	}
	return s.parent.id
}

// Duration returns the span's duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the value of one attribute (nil when absent).
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// Set records a deterministic attribute: its value must be a pure function
// of the inputs (grammar, options, seeds), never of wall-clock or worker
// count, because it participates in the canonical tree. Nil-safe; writes on
// a finished (sealed) trace are dropped.
func (s *Span) Set(key string, val any) {
	if s == nil || s.trace.finished.Load() {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetVolatile records a wall-clock- or schedule-dependent attribute: it is
// exported but excluded from the canonical determinism rendering. Nil-safe;
// writes on a finished (sealed) trace are dropped.
func (s *Span) SetVolatile(key string, val any) {
	if s == nil || s.trace.finished.Load() {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val, Volatile: true})
	s.mu.Unlock()
}

// End finishes the span. Ending the root span finishes the whole trace and
// delivers it to the tracer's ring. Nil-safe and idempotent.
func (s *Span) End() {
	if s != nil {
		s.endAt(time.Now())
	}
}

// endAt stamps end as the span's end reading, unless the span already has
// one (an earlier End, or the seal of a finished trace), and finishes the
// trace when s is its root.
func (s *Span) endAt(end time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = end
	}
	s.mu.Unlock()
	if s.parent == nil {
		s.trace.finish()
	}
}

// newSpan allocates a span, derives its deterministic ID, and registers it
// with the trace. On a finished trace it returns nil (every Span method is
// nil-safe): once the ring has served a trace, no goroutine may grow it.
func (t *Trace) newSpan(parent *Span, name string, seq uint64) *Span {
	s := &Span{trace: t, parent: parent, name: name, seq: seq, start: time.Now()}
	var base uint64
	if parent != nil {
		base = parent.id
	} else {
		base = fnv64(t.id)
	}
	// The ID mixes the parent chain (base), the span name, and the sibling
	// sequence — and nothing else — so identical pipelines produce identical
	// IDs at any worker count.
	s.id = splitmix64(base ^ fnv64(name) ^ (seq+1)*0x9e3779b97f4a7c15)
	t.mu.Lock()
	if t.finished.Load() {
		t.mu.Unlock()
		return nil
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// ctxKey carries the current span through a context chain.
type ctxKey struct{}

// New starts a trace: the returned context carries the root span, and the
// returned span must be ended to finish the trace. id is the trace identity
// (cexd uses the request ID; harnesses use a run label) — span IDs derive
// from it, so replaying a run under the same id reproduces the same tree.
// A nil tracer disables the trace entirely (returns ctx unchanged and a nil
// span, on which every method is a no-op).
func New(ctx context.Context, tracer *Tracer, id, rootName string) (context.Context, *Span) {
	if tracer == nil {
		return ctx, nil
	}
	t := &Trace{tracer: tracer, id: id}
	liveTraces.Add(1)
	root := t.newSpan(nil, rootName, 0)
	t.root = root
	return context.WithValue(ctx, ctxKey{}, root), root
}

// Start begins a child span of the span carried by ctx, drawing the next
// sibling sequence number from the parent. Use only where siblings start
// sequentially (the number draw is racy otherwise); concurrent siblings use
// StartSeq. When tracing is disabled — or ctx carries no span — it returns
// (ctx, nil) after one atomic load.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if liveTraces.Load() == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.trace.newSpan(parent, name, parent.childSeq.Add(1))
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartSeq is Start with an explicit sibling sequence number, for spans
// started concurrently (per-conflict searches use the conflict index,
// repair validations the candidate index): the ID must not depend on which
// goroutine gets there first.
func StartSeq(ctx context.Context, name string, seq int) (context.Context, *Span) {
	if liveTraces.Load() == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.trace.newSpan(parent, name, uint64(seq)+1_000_000)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// FromContext returns the span ctx carries (nil when tracing is disabled or
// ctx is untraced).
func FromContext(ctx context.Context) *Span {
	if liveTraces.Load() == 0 {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ID returns the trace ID ctx belongs to ("" when untraced) — the exemplar
// the metrics layer attaches to slow-bucket samples.
func ID(ctx context.Context) string {
	if s := FromContext(ctx); s != nil {
		return s.trace.id
	}
	return ""
}

// Detach transplants the current span onto a fresh background context: the
// singleflight leader runs its flight on a context detached from the
// client's (a leader disconnect must not poison followers) but the flight's
// spans still belong to the leader's trace.
func Detach(ctx context.Context) context.Context {
	if liveTraces.Load() == 0 {
		return context.Background()
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil {
		return context.Background()
	}
	return context.WithValue(context.Background(), ctxKey{}, s)
}

// Timer is one timed phase: its span (nil when untraced) and the start
// reading, which is the span's own.
type Timer struct {
	span  *Span
	start time.Time
}

// Time opens a timed phase as Start does; callers whose later spans must
// stay siblings of this one discard the returned context.
func Time(ctx context.Context, name string) (context.Context, Timer) {
	ctx, s := Start(ctx, name)
	return ctx, timerFor(s)
}

// Root opens a timed root as New does, and times it even with a nil tracer.
func Root(ctx context.Context, tracer *Tracer, id, name string) (context.Context, Timer) {
	ctx, s := New(ctx, tracer, id, name)
	return ctx, timerFor(s)
}

func timerFor(s *Span) Timer {
	if s == nil {
		return Timer{start: time.Now()}
	}
	return Timer{span: s, start: s.start}
}

// Span returns the phase's span (nil when untraced; Span methods are
// nil-safe).
func (t Timer) Span() *Span { return t.span }

// End reads the clock once, stamps the reading as the span's end, and
// returns the phase's duration. A span already ended (sealed when its trace
// finished under a watchdog-abandoned phase) keeps its earlier stamp.
func (t Timer) End() time.Duration {
	end := time.Now()
	if t.span != nil {
		t.span.endAt(end)
	}
	return end.Sub(t.start)
}

// fnv64 is FNV-1a over a string.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the canonical 64-bit finalizer: decorrelates the structured
// inputs of the ID derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
