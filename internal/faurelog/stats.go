package faurelog

import (
	"time"

	"faure/internal/obs"
	"faure/internal/relstore"
)

// Stats reports the work done by one evaluation, mirroring the paper's
// Table 4 breakdown: SQLTime is the relational phase (joins, condition
// construction, dedup), SolverTime is the condition-solving phase (the
// paper's Z3 column).
//
// SQLTime is the run's wall clock — covering every phase, the deferred
// final prune included — minus the total solver time, both read once
// at the very end of the run, so no solver work from a later phase can
// leak into the relational column.
//
// Every field is an entry of the Counters table, which names it for
// the observer and for reports and says how Add combines it: a new
// field needs a table entry and the line that captures its value.
type Stats struct {
	SQLTime    time.Duration
	SolverTime time.Duration
	Derived    int64 // tuples inserted into derived relations
	Pruned     int64 // tuples dropped for contradictory conditions
	Absorbed   int64 // tuples dropped by semantic absorption
	// Iterations counts the fixpoint rounds after each stratum's first,
	// summed over the strata, for Eval and EvalIncrement alike.
	Iterations int64
	SatCalls   int64 // solver satisfiability decisions
	// Solver counters (see internal/solver): decisions answered by an
	// exact-key cached certificate, Valid calls answered by a cached
	// validity, decisions by the compiled finite-domain fast path, how
	// many reached actual search, and how many certificate-store
	// entries were clock-evicted.
	SolverCacheHits    int64
	SolverCertHits     int64
	SolverFastPathHits int64
	SolverSearches     int64
	MemoEvictions      int64
	// AbsorbProbes counts the semantic absorption checks: those the
	// syntactic fast path could not answer. AbsorbSetHits counts the
	// probes a condition group's cover decided as a set test, so
	// AbsorbProbes − AbsorbSetHits reached the solver's Implies.
	AbsorbProbes  int64
	AbsorbSetHits int64
	// Intern counters snapshot the condition intern table (see
	// internal/cond): Hits/Misses are this run's constructor lookups
	// (deltas over the run), Live is the table's node count at the end
	// of the run (process-wide — the table is global and monotonic).
	InternHits   int64
	InternMisses int64
	InternLive   int64
	// Store counters snapshot the relation store's index usage over the
	// run: single-column probes, multi-column intersection probes,
	// deliberate full scans, probes that fell back to full scans
	// (c-variable keys, columns the index cannot see), and how many
	// column candidate lists were intersected beyond the first.
	Probes        int64
	MultiProbes   int64
	Scans         int64
	FallbackScans int64
	Intersections int64
	// Planner counters: how many rule applications were planned and how
	// many of those the cost model actually reordered away from the
	// written literal order.
	PlansPlanned   int64
	PlansReordered int64
	// Provenance counters (zero unless Options.Prov was set): edges and
	// parent references this run recorded, and edges the bounded
	// recorder's ring evicted during the run.
	ProvEdges   int64
	ProvParents int64
	ProvEvicted int64
}

// CounterKind says how Stats.Add combines a counter and how it is
// reported.
type CounterKind uint8

const (
	// Sum is per-run work: Add sums it and the observer counts it.
	Sum CounterKind = iota
	// Gauge is a level, not work: Add keeps the maximum and the
	// observer sets a gauge.
	Gauge
	// Timer is a time.Duration: Add sums it, the observer records a
	// duration, and reports give it in milliseconds.
	Timer
)

// Counter is one entry of the Stats counter table.
type Counter struct {
	// Name is the report name: the counter's key in a faure-bench JSON
	// workload.
	Name string
	// Metric is the name the observer receives the counter under.
	Metric string
	Kind   CounterKind
	// Prov marks the counters only a provenance recorder moves: the
	// observer receives them only when Options.Prov is set, and reports
	// omit them when they are zero.
	Prov bool
	// Span marks the counters also set as attributes, under Name, on
	// the evaluation's root span.
	Span  bool
	field func(*Stats) *int64
}

// Get returns the counter's value in s (a Timer's in nanoseconds).
func (c Counter) Get(s *Stats) int64 { return *c.field(s) }

// Set stores v as the counter's value in s.
func (c Counter) Set(s *Stats, v int64) { *c.field(s) = v }

// Counters is the one ordered list of Stats' counters and phase
// timers. Stats.Add, the observer emission and faure-bench's JSON
// workloads loop over it.
var Counters = []Counter{
	{Name: "sql_ms", Metric: "eval.sql_time", Kind: Timer, field: func(s *Stats) *int64 { return (*int64)(&s.SQLTime) }},
	{Name: "solver_ms", Metric: "eval.solver_time", Kind: Timer, field: func(s *Stats) *int64 { return (*int64)(&s.SolverTime) }},
	{Name: "derived", Metric: "eval.derived", Span: true, field: func(s *Stats) *int64 { return &s.Derived }},
	{Name: "pruned", Metric: "eval.pruned", Span: true, field: func(s *Stats) *int64 { return &s.Pruned }},
	{Name: "absorbed", Metric: "eval.absorbed", Span: true, field: func(s *Stats) *int64 { return &s.Absorbed }},
	{Name: "iterations", Metric: "eval.iterations", Span: true, field: func(s *Stats) *int64 { return &s.Iterations }},
	{Name: "sat_calls", Metric: "eval.sat_calls", field: func(s *Stats) *int64 { return &s.SatCalls }},
	{Name: "solver_cache_hits", Metric: "eval.solver_cache_hits", field: func(s *Stats) *int64 { return &s.SolverCacheHits }},
	{Name: "solver_cert_hits", Metric: "eval.solver_cert_hits", field: func(s *Stats) *int64 { return &s.SolverCertHits }},
	{Name: "solver_fastpath_hits", Metric: "eval.solver_fastpath_hits", field: func(s *Stats) *int64 { return &s.SolverFastPathHits }},
	{Name: "solver_searches", Metric: "eval.solver_searches", field: func(s *Stats) *int64 { return &s.SolverSearches }},
	{Name: "memo_evictions", Metric: "eval.memo_evictions", field: func(s *Stats) *int64 { return &s.MemoEvictions }},
	{Name: "absorb_probes", Metric: "eval.absorb_probes", field: func(s *Stats) *int64 { return &s.AbsorbProbes }},
	{Name: "absorb_set_hits", Metric: "eval.absorb_set_hits", field: func(s *Stats) *int64 { return &s.AbsorbSetHits }},
	{Name: "intern_hits", Metric: "eval.intern_hits", field: func(s *Stats) *int64 { return &s.InternHits }},
	{Name: "intern_misses", Metric: "eval.intern_misses", field: func(s *Stats) *int64 { return &s.InternMisses }},
	// The intern table is global, so its size is a process-wide level.
	{Name: "intern_live", Metric: "cond.intern_live", Kind: Gauge, field: func(s *Stats) *int64 { return &s.InternLive }},
	{Name: "store_probes", Metric: "eval.store_probes", field: func(s *Stats) *int64 { return &s.Probes }},
	{Name: "store_multi_probes", Metric: "eval.store_multi_probes", field: func(s *Stats) *int64 { return &s.MultiProbes }},
	{Name: "store_scans", Metric: "eval.store_scans", field: func(s *Stats) *int64 { return &s.Scans }},
	{Name: "store_fallback_scans", Metric: "eval.store_fallback_scans", field: func(s *Stats) *int64 { return &s.FallbackScans }},
	{Name: "store_intersections", Metric: "eval.store_intersections", field: func(s *Stats) *int64 { return &s.Intersections }},
	{Name: "plans_planned", Metric: "eval.plans_planned", field: func(s *Stats) *int64 { return &s.PlansPlanned }},
	{Name: "plans_reordered", Metric: "eval.plans_reordered", field: func(s *Stats) *int64 { return &s.PlansReordered }},
	{Name: "prov_edges", Metric: "eval.prov_edges", Prov: true, field: func(s *Stats) *int64 { return &s.ProvEdges }},
	{Name: "prov_parents", Metric: "eval.prov_parents", Prov: true, field: func(s *Stats) *int64 { return &s.ProvParents }},
	{Name: "prov_evicted", Metric: "eval.prov_evicted", Prov: true, field: func(s *Stats) *int64 { return &s.ProvEvicted }},
}

// Ratio is a gauge derived from a run's counters.
type Ratio struct {
	Name   string // report name, as Counter.Name
	Metric string // observer gauge name
	Of     func(Stats) float64
}

// Ratios lists the derived gauges reported next to the counters.
var Ratios = []Ratio{
	{Name: "sat_calls_per_derived", Metric: "eval.sat_calls_per_derived", Of: Stats.SatCallsPerDerived},
	{Name: "probe_hit_ratio", Metric: "eval.probe_hit_ratio", Of: Stats.ProbeHitRatio},
}

// Add accumulates other into s: counters and timers sum, gauges keep
// the maximum.
func (s *Stats) Add(other Stats) {
	for _, c := range Counters {
		p, v := c.field(s), c.Get(&other)
		if c.Kind == Gauge {
			*p = max(*p, v)
		} else {
			*p += v
		}
	}
}

// ProbeHitRatio is the fraction of store lookups the hash indexes
// answered without scanning the whole relation; 1 when no lookup was
// served.
func (s Stats) ProbeHitRatio() float64 {
	return relstore.Counters{
		Probes:      s.Probes,
		MultiProbes: s.MultiProbes,
		Scans:       s.Scans,
		Fallbacks:   s.FallbackScans,
	}.HitRatio()
}

// SatCallsPerDerived is the run's search-reaching solver decisions per
// derived tuple — the headline metric for the cached solver: a value
// well below 1 means most conditions were decided by the cache or the
// compiled finite-domain fast path rather than search.
func (s Stats) SatCallsPerDerived() float64 {
	if s.Derived == 0 {
		return 0
	}
	return float64(s.SolverSearches) / float64(s.Derived)
}

// report publishes s to the observer, one call per counter under its
// table name, then the derived ratios, and sets the Span counters as
// attributes of span. Provenance counters are published only when
// withProv is set.
func (s *Stats) report(o obs.Observer, span obs.Span, withProv bool) {
	var attrs []obs.Attr
	for _, c := range Counters {
		if c.Prov && !withProv {
			continue
		}
		v := c.Get(s)
		switch c.Kind {
		case Timer:
			o.ObserveDuration(c.Metric, time.Duration(v))
		case Gauge:
			o.SetGauge(c.Metric, float64(v))
		default:
			o.Count(c.Metric, v)
		}
		if c.Span {
			attrs = append(attrs, obs.Int(c.Name, v))
		}
	}
	for _, r := range Ratios {
		o.SetGauge(r.Metric, r.Of(*s))
	}
	span.SetAttrs(attrs...)
}
