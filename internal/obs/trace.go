// Package obs is Egeria's zero-dependency observability layer: a
// request-scoped span tracer, a metrics registry, and the HTTP surfaces
// (/metricz, /tracez) that expose both.
//
// Tracing is request-scoped and context-propagated: the server gives every
// request a trace ID (NewTraceID), surfaced in responses and logs; when the
// Tracer samples the request (Sample), Root starts its Trace, the root Span
// rides the context.Context (ContextWithSpan), and every instrumented layer
// attaches child spans via SpanFrom(ctx).StartChild(...). All Span methods
// are nil-receiver safe, so uninstrumented or unsampled paths pay only a nil
// check — the hot path stays cheap with sampling off. Sampling only controls
// whether the span tree is materialized and retained for /tracez.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// traceSeq makes trace IDs process-unique; idPrefix, the hex process-start
// stamp and a dash, distinguishes processes.
var (
	traceSeq atomic.Uint64
	idPrefix = strconv.FormatUint(uint64(uint32(time.Now().UnixNano())), 16) + "-"
)

// NewTraceID returns a process-unique request identifier. IDs are unique
// within a process (a strictly increasing sequence) and prefixed with a
// process-start stamp so IDs from different runs rarely collide. The ID
// string is its only allocation.
func NewTraceID() string {
	var buf [32]byte
	return string(strconv.AppendUint(append(buf[:0], idPrefix...), traceSeq.Add(1), 16))
}

// spanKey is the context key of the current span, present only when the
// request's trace is sampled.
type spanKey struct{}

// ContextWithSpan attaches a span to ctx so downstream layers can extend the
// trace via SpanFrom.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the current span, or nil when the request is unsampled
// (or untraced). The single ctx.Value lookup is the entire per-request cost
// of instrumentation with sampling off.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. A nil *Span is a valid no-op:
// every method checks its receiver, so instrumentation never branches on
// "is tracing on".
type Span struct {
	trace *Trace
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// StartChild starts and returns a sub-span. Safe for concurrent use: a
// request handler and the cache's compute goroutine may attach children to
// the same parent.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{trace: s.trace, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt is SetAttr for integer values.
func (s *Span) SetAttrInt(key string, value int) {
	s.SetAttr(key, strconv.Itoa(value))
}

// Finish marks the span complete. Finishing the trace's root span publishes
// the trace to the tracer's store. Finish is idempotent.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	already := !s.end.IsZero()
	if !already {
		s.end = time.Now()
	}
	s.mu.Unlock()
	if already {
		return
	}
	if s.trace != nil && s.trace.root == s && s.trace.store != nil {
		s.trace.store.add(s.trace)
	}
}

// Trace is one request's span tree.
type Trace struct {
	id    string
	start time.Time
	root  *Span
	store *TraceStore
}

// ID returns the trace identifier.
func (t *Trace) ID() string { return t.id }

// Tracer starts traces, applying sampling. A nil *Tracer never samples, so
// serving layers can hold an optional tracer without branching.
type Tracer struct {
	period int64 // sample every period-th trace; 0 = never
	n      atomic.Int64
	store  *TraceStore
}

// NewTracer creates a tracer that samples approximately rate of the traces
// it starts (rate <= 0: none; rate >= 1: all; in between: every round(1/rate)-th)
// and retains sampled traces in store (required when rate > 0).
func NewTracer(rate float64, store *TraceStore) *Tracer {
	t := &Tracer{store: store}
	switch {
	case rate <= 0:
		t.period = 0
	case rate >= 1:
		t.period = 1
	default:
		t.period = int64(1/rate + 0.5)
	}
	return t
}

// Store returns the tracer's trace store (nil for a nil tracer).
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// Sample advances the sampler by one trace and reports whether that trace
// is recorded; pair it with Root, so an unsampled request builds neither a
// context nor a span name.
func (t *Tracer) Sample() bool {
	return t != nil && t.period != 0 && t.store != nil && t.n.Add(1)%t.period == 0
}

// Root begins a recorded trace under id and returns its root span, which
// the caller must Finish. Call it only after Sample reported true.
func (t *Tracer) Root(id, name string) *Span {
	tr := &Trace{id: id, start: time.Now(), store: t.store}
	tr.root = &Span{trace: tr, name: name, start: tr.start}
	return tr.root
}

// TraceStore retains the most recent completed traces for /tracez.
type TraceStore struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// DefaultTraceCapacity is how many completed traces NewTraceStore retains
// when given a non-positive capacity.
const DefaultTraceCapacity = 128

// NewTraceStore creates a store retaining the last capacity traces.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{buf: make([]*Trace, capacity)}
}

func (s *TraceStore) add(t *Trace) {
	s.mu.Lock()
	s.buf[s.next] = t
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Len returns how many traces the store currently holds.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Get exports the trace with the given ID, newest first on duplicates.
func (s *TraceStore) Get(id string) (TraceJSON, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		// walk newest to oldest
		idx := ((s.next-1-i)%len(s.buf) + len(s.buf)) % len(s.buf)
		if t := s.buf[idx]; t != nil && t.id == id {
			return t.export(), true
		}
	}
	return TraceJSON{}, false
}

// Recent exports up to n of the most recent traces, newest first (n <= 0
// means all retained).
func (s *TraceStore) Recent(n int) []TraceJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > s.n {
		n = s.n
	}
	out := make([]TraceJSON, 0, n)
	for i := 0; i < n; i++ {
		idx := ((s.next-1-i)%len(s.buf) + len(s.buf)) % len(s.buf)
		if t := s.buf[idx]; t != nil {
			out = append(out, t.export())
		}
	}
	return out
}

// TraceJSON is the exported form of one trace: the span tree with
// durations in microseconds and span starts relative to the trace start.
type TraceJSON struct {
	ID        string    `json:"id"`
	Start     time.Time `json:"start"`
	DurMicros int64     `json:"dur_micros"`
	Root      SpanJSON  `json:"root"`
}

// SpanJSON is the exported form of one span.
type SpanJSON struct {
	Name        string     `json:"name"`
	StartMicros int64      `json:"start_micros"` // offset from trace start
	DurMicros   int64      `json:"dur_micros"`
	Unfinished  bool       `json:"unfinished,omitempty"`
	Attrs       []Attr     `json:"attrs,omitempty"`
	Children    []SpanJSON `json:"children,omitempty"`
}

func (t *Trace) export() TraceJSON {
	root := t.root.export(t.start)
	return TraceJSON{ID: t.id, Start: t.start, DurMicros: root.DurMicros, Root: root}
}

func (s *Span) export(traceStart time.Time) SpanJSON {
	s.mu.Lock()
	end := s.end
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	out := SpanJSON{
		Name:        s.name,
		StartMicros: s.start.Sub(traceStart).Microseconds(),
		Attrs:       attrs,
	}
	if end.IsZero() {
		// still running (e.g. a cache fill outliving its request's deadline)
		out.Unfinished = true
	} else {
		out.DurMicros = end.Sub(s.start).Microseconds()
	}
	for _, c := range children {
		out.Children = append(out.Children, c.export(traceStart))
	}
	return out
}

// Spans counts the spans in the exported tree (diagnostic convenience).
func (t TraceJSON) Spans() int { return t.Root.countSpans() }

func (s SpanJSON) countSpans() int {
	n := 1
	for _, c := range s.Children {
		n += c.countSpans()
	}
	return n
}
