// Package obs is the unified observability layer of the fauré
// reproduction: counters, gauges, duration and value distributions
// (with p50/p95/p99 summaries), and hierarchical spans with structured
// attributes, all behind one Observer interface with a no-op default.
//
// Every analysis layer — the fauré-log engine, the condition solver,
// the containment and rewrite machinery, the verifier ladder — reports
// into an Observer it is handed; a nil observer costs the hot paths a
// single branch (callers guard instrumentation behind an enabled flag
// and the no-op implementation does not read the clock). The concrete
// Registry implementation is safe for concurrent use and renders its
// state as text or JSON, and debug.go serves it over HTTP next to
// pprof and expvar.
//
// The package depends only on the standard library and is imported by
// everything; it must not import any other internal package.
package obs

import (
	"strconv"
	"time"
)

// Attr is one structured span attribute. Values are strings so spans
// stay cheap to snapshot and render; use Int/Bool for the common
// conversions.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	if v {
		return Attr{Key: key, Value: "true"}
	}
	return Attr{Key: key, Value: "false"}
}

// Span is one timed region of work. Spans nest: StartChild opens a
// sub-span attributed to this one. End is idempotent; attributes may
// be added until End.
type Span interface {
	// StartChild opens a child span.
	StartChild(name string, attrs ...Attr) Span
	// SetAttrs attaches attributes to the span.
	SetAttrs(attrs ...Attr)
	// End closes the span, fixing its duration.
	End()
}

// Observer receives metrics and spans from the analysis layers.
//
// Metric names are dot-separated lowercase paths
// ("solver.sat_latency", "eval.derived"); each name should be used
// with exactly one of the four instrument kinds.
type Observer interface {
	// StartSpan opens a root span.
	StartSpan(name string, attrs ...Attr) Span
	// Count adds delta to a monotonic counter.
	Count(name string, delta int64)
	// SetGauge records the current value of a gauge.
	SetGauge(name string, value float64)
	// ObserveDuration adds one sample to a latency distribution.
	ObserveDuration(name string, d time.Duration)
	// Observe adds one sample to a value distribution (sizes, lengths).
	Observe(name string, value float64)
	// Enabled reports whether the observer records anything; callers
	// may use it to skip building attributes on hot paths.
	Enabled() bool
}

// Nop is the do-nothing observer: every method returns immediately and
// StartSpan hands back a shared no-op span.
var Nop Observer = nopObserver{}

// OrNop returns o, or Nop when o is nil, so call sites never need a
// nil check per instrument.
func OrNop(o Observer) Observer {
	if o == nil {
		return Nop
	}
	return o
}

// Under returns an observer whose StartSpan opens a child of parent
// and whose other methods forward to o; with a nil parent (observation
// off) it returns o. A layer hands it to the layers it calls, so their
// spans nest under its own.
func Under(parent Span, o Observer) Observer {
	if parent == nil {
		return o
	}
	return under{Observer: o, parent: parent}
}

type under struct {
	Observer
	parent Span
}

func (u under) StartSpan(name string, attrs ...Attr) Span { return u.parent.StartChild(name, attrs...) }

type nopObserver struct{}

func (nopObserver) StartSpan(string, ...Attr) Span        { return nopSpan{} }
func (nopObserver) Count(string, int64)                   {}
func (nopObserver) SetGauge(string, float64)              {}
func (nopObserver) ObserveDuration(string, time.Duration) {}
func (nopObserver) Observe(string, float64)               {}
func (nopObserver) Enabled() bool                         { return false }

type nopSpan struct{}

func (nopSpan) StartChild(string, ...Attr) Span { return nopSpan{} }
func (nopSpan) SetAttrs(...Attr)                {}
func (nopSpan) End()                            {}
