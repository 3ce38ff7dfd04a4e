package main

import (
	"runtime/metrics"
	"strings"
	"time"

	"faure"
)

// span is one benchmark-side timing span around a call into a layer.
// Times are seconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// only times calls; it records no spans and reads no runtime metrics.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int // stack of open span indexes
	// rt sums the Go-runtime and intern-table deltas measured around
	// every call.
	rt usage
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) since() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span nested in the innermost open one and returns its
// index; a disabled tracer returns -1.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.since()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned, which must be the innermost open
// one.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id].End = t.since()
	t.open = t.open[:len(t.open)-1]
}

// call runs fn inside a span named name and returns its duration,
// measured around the call. When tracing, it also adds the runtime and
// intern-table deltas over the call to t.rt.
func (t *tracer) call(name string, fn func()) time.Duration {
	if !t.on {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	before := readUsage()
	id := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	t.rt.add(readUsage().minus(before))
	return d
}

// selfSeconds returns each span's self time: its duration minus the
// time its direct children cover.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// coverage is the share of wallS, the summed query call times, that the
// self times of the query spans and every span below them account for.
// The benchmark's spans wrap whole calls into the program, so each
// query is one span and the share is 1 up to clock reads: the check
// guards the span bookkeeping, not the program, until spans come from
// inside the program.
func coverage(spans []span, wallS float64) float64 {
	self := selfSeconds(spans)
	covered := 0.0
	for i := range spans {
		for j := i; j >= 0; j = spans[j].Parent {
			if strings.HasPrefix(spans[j].Name, evalSpan) {
				covered += self[i]
				break
			}
		}
	}
	return ratio(covered, wallS)
}

// usage is a reading (or a delta) of the Go runtime's allocation and
// GC counters plus the condition intern table's counters.
type usage struct {
	AllocBytes   float64 `json:"alloc_bytes"`
	AllocObjects float64 `json:"alloc_objects"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPU        float64 `json:"gc_cpu_s"`
	GCPause      float64 `json:"gc_pause_s"`
	InternHits   float64 `json:"intern_hits"`
	InternMisses float64 `json:"intern_misses"`
	InternLive   float64 `json:"intern_live"` // a level, not a delta: the live count at the latest reading
}

var usageSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	is := faure.CondInternStats()
	return usage{
		AllocBytes:   float64(s[0].Value.Uint64()),
		AllocObjects: float64(s[1].Value.Uint64()),
		GCCycles:     float64(s[2].Value.Uint64()),
		GCCPU:        s[3].Value.Float64(),
		GCPause:      histogramSum(s[4].Value.Float64Histogram()),
		InternHits:   float64(is.Hits),
		InternMisses: float64(is.Misses),
		InternLive:   float64(is.Live),
	}
}

// histogramSum estimates the total of a runtime histogram from its
// bucket counts and the midpoints of the finite bucket bounds.
func histogramSum(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

func (u usage) minus(b usage) usage {
	return usage{
		AllocBytes:   u.AllocBytes - b.AllocBytes,
		AllocObjects: u.AllocObjects - b.AllocObjects,
		GCCycles:     u.GCCycles - b.GCCycles,
		GCCPU:        u.GCCPU - b.GCCPU,
		GCPause:      u.GCPause - b.GCPause,
		InternHits:   u.InternHits - b.InternHits,
		InternMisses: u.InternMisses - b.InternMisses,
		InternLive:   u.InternLive,
	}
}

func (u *usage) add(d usage) {
	u.AllocBytes += d.AllocBytes
	u.AllocObjects += d.AllocObjects
	u.GCCycles += d.GCCycles
	u.GCCPU += d.GCCPU
	u.GCPause += d.GCPause
	u.InternHits += d.InternHits
	u.InternMisses += d.InternMisses
	u.InternLive = d.InternLive
}

// layers renders the usage as the gc.* and cond.* per-layer metrics.
func (u usage) layers(out map[string]float64) {
	out["gc.alloc_mb"] = u.AllocBytes / (1 << 20)
	out["gc.alloc_objects"] = u.AllocObjects
	out["gc.cycles"] = u.GCCycles
	out["gc.cpu_s"] = u.GCCPU
	out["gc.pause_ms"] = u.GCPause * 1000
	out["cond.intern_hits"] = u.InternHits
	out["cond.intern_misses"] = u.InternMisses
	out["cond.intern_live"] = u.InternLive
	out["cond.intern_hit_ratio"] = ratio(u.InternHits, u.InternHits+u.InternMisses)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
