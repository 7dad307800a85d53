package telemetry

import "context"

// Span is one timed region of work. Spans form trees via StartChild;
// finishing a span records its duration under "span.<name>" and files a
// SpanRecord carrying the parent link. A nil *Span is a valid no-op, so
// instrumented code can start spans unconditionally.
//
// Spans started under a trace (StartTrace, StartSpanIn, or children of
// such spans) additionally enter the registry's trace table, keyed by
// their TraceID, from which whole request trees are reassembled even
// when parts of the tree finished in another process.
type Span struct {
	reg      *Registry
	id       uint64
	parentID uint64
	traceID  uint64
	name     string
	start    float64
	end      float64
	ended    bool
}

// SpanRecord is a finished span as retained by the registry ring.
type SpanRecord struct {
	// ID is unique within the registry; ParentID is 0 for roots. New
	// registries start their ID sequence at a random base, so records
	// from different registries (= different processes) do not collide
	// when reassembled into one trace.
	ID, ParentID uint64
	// TraceID groups the spans of one distributed trace; 0 = untraced.
	TraceID uint64
	// Name is the span name given to StartSpan/StartChild.
	Name string
	// Start and End are registry-clock readings in seconds.
	Start, End float64
}

// StartSpan opens a root span outside any trace.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, id: r.spanID.Add(1), name: name, start: r.Now()}
}

// StartTrace opens a root span under a freshly minted trace ID — the
// entry point for one serve request or bench run.
func (r *Registry) StartTrace(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, id: r.spanID.Add(1), traceID: NewTraceID(), name: name, start: r.Now()}
}

// StartSpanIn opens a span parented on tc — typically a context that
// arrived from another process (a farm task descriptor) or another
// goroutine (a context.Context). An invalid tc degrades to StartSpan.
func (r *Registry) StartSpanIn(tc TraceContext, name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, id: r.spanID.Add(1), parentID: tc.SpanID, traceID: tc.TraceID, name: name, start: r.Now()}
}

// StartSpanCtx opens a span parented on the trace threaded through ctx,
// or a root span outside any trace when ctx carries none: the form for
// layers that join a caller's trace but never start one.
func (r *Registry) StartSpanCtx(ctx context.Context, name string) *Span {
	if tc, ok := TraceFromContext(ctx); ok {
		return r.StartSpanIn(tc, name)
	}
	return r.StartSpan(name)
}

// StartTraceCtx opens a span parented on the trace threaded through
// ctx, or a root span under a freshly minted trace when ctx carries
// none: the form for operations that are a trace of their own unless
// a caller already traces them.
func (r *Registry) StartTraceCtx(ctx context.Context, name string) *Span {
	if tc, ok := TraceFromContext(ctx); ok {
		return r.StartSpanIn(tc, name)
	}
	return r.StartTrace(name)
}

// StartChild opens a child span under s, inheriting its trace.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	r := s.reg
	return &Span{reg: r, id: r.spanID.Add(1), parentID: s.id, traceID: s.traceID, name: name, start: r.Now()}
}

// ID returns the span's registry-unique ID (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Context returns the span's position in its trace, for handing to
// children in other goroutines or processes. Zero (invalid) when the
// span is nil or untraced.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.traceID, SpanID: s.id}
}

// End finishes the span and records it; extra calls are ignored. Spans
// are not goroutine-safe: one goroutine owns a span.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = s.reg.Now()
	s.reg.recordSpan(s.Record())
}

// Record returns the finished span's SpanRecord — what workers ship back
// to the master so its trace table sees the whole tree. Valid only after
// End; a nil or unfinished span yields the zero record.
func (s *Span) Record() SpanRecord {
	if s == nil || !s.ended {
		return SpanRecord{}
	}
	return SpanRecord{ID: s.id, ParentID: s.parentID, TraceID: s.traceID, Name: s.name, Start: s.start, End: s.end}
}
