// Package relstore is the in-memory relational substrate fauré-log
// evaluation runs on — the reproduction's stand-in for the PostgreSQL
// backend of the paper's implementation. It stores c-table relations
// with per-column hash indexes over constant values, keyed by the
// constant's cond.Term value itself, and keeps, per column, the list
// of tuples holding a c-variable there (which can match any constant
// subject to a condition, so every constant probe must also consider
// them).
//
// Indexes are built on demand, as PostgreSQL indexes exist only where a
// query needs them: a column's index is built by the first probe that
// reads it (Candidates, CandidatesMulti, ColStats) and kept up to date
// by later appends.
//
// A relation is append-only under a watermark: Append adds and indexes
// a tuple above it, Publish raises it to the end, and Insert does both.
// Len, All, Candidates and CandidatesMulti see only the tuples below
// the watermark, so a fixpoint round can append its derivations to the
// relations its joins read and publish them at the round barrier.
//
// Tuples are shared rather than copied. A relation loaded from a c-table
// shares the table's tuple slice, and Table hands out the relation's.
// Both clip the slice's capacity, so an append on either side
// reallocates instead of writing into the other's array; writing an
// element in place does not, and would show through to the other.
//
// Concurrency contract: reads (Rel, Tuple, All, Candidates,
// CandidatesMulti, ColStats, Len, Table) are safe from any number of
// goroutines as long as no goroutine mutates the store concurrently
// (Append, Publish, Insert, Ensure, Replace, Load). A read may build a
// column index: builds of one relation serialize on a per-relation lock
// and publish the finished index atomically, so concurrent first probes
// of the same column build it once and every reader sees either no
// index or a complete one. A caller sharing a store across goroutines
// must therefore phase its use: write only while nothing reads. The
// probe/scan counters are atomic so concurrent readers do not race on
// them.
package relstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
)

// Relation is an indexed c-table.
type Relation struct {
	Name   string
	Arity  int
	tuples []ctable.Tuple
	// vis is the watermark: tuples[:vis] are published, the rest only
	// appended.
	vis int
	// cols[c] is column c's index, nil until the column's first probe.
	// mu serializes the builds; a finished index is published with one
	// atomic store and never replaced.
	mu   sync.Mutex
	cols []atomic.Pointer[column]

	// ids is the optional exact-duplicate index over tuple identities
	// (data hash + interned condition id); enabled by TrackIdentity.
	// Nil means identity is not tracked and HasIdentity always reports
	// false.
	ids map[ctable.TupleID]struct{}

	// Stats; atomic because reads may run concurrently (see the package
	// concurrency contract). Fallbacks are Candidates calls that
	// degraded to a full scan (c-variable key, out-of-range column) —
	// counted apart from deliberate All() scans so a probe hit ratio
	// over these counters is honest about where index lookups silently
	// gave up.
	probes        atomic.Int64 // indexed single-column constant probes served
	multiProbes   atomic.Int64 // multi-column intersection probes served
	scans         atomic.Int64 // deliberate full scans served (All)
	fallbacks     atomic.Int64 // probes that fell back to a full scan
	intersections atomic.Int64 // column candidate lists intersected beyond the first
}

// Counters is a snapshot of a relation's (or a whole store's) index
// usage: how many lookups were answered by the hash indexes and how
// many degraded to scanning every tuple.
type Counters struct {
	Probes        int64 // single-column constant probes
	MultiProbes   int64 // multi-column intersection probes
	Scans         int64 // deliberate full scans (All)
	Fallbacks     int64 // probes degraded to full scans (c-var key, bad column)
	Intersections int64 // column lists intersected beyond the first
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Probes += other.Probes
	c.MultiProbes += other.MultiProbes
	c.Scans += other.Scans
	c.Fallbacks += other.Fallbacks
	c.Intersections += other.Intersections
}

// HitRatio is the fraction of lookups the indexes answered without
// scanning the whole relation; 1 when no lookup was served.
func (c Counters) HitRatio() float64 {
	total := c.Probes + c.MultiProbes + c.Scans + c.Fallbacks
	if total == 0 {
		return 1
	}
	return float64(c.Probes+c.MultiProbes) / float64(total)
}

// Counters snapshots the relation's lookup counters.
func (r *Relation) Counters() Counters {
	return Counters{
		Probes:        r.probes.Load(),
		MultiProbes:   r.multiProbes.Load(),
		Scans:         r.scans.Load(),
		Fallbacks:     r.fallbacks.Load(),
		Intersections: r.intersections.Load(),
	}
}

// TrackIdentity enables the exact-duplicate identity index,
// backfilling it from the tuples already present. Engines that dedup
// on insert (fixpoint evaluation, minisql exec) enable it; plain
// storage does not pay for it.
func (r *Relation) TrackIdentity() {
	if r.ids != nil {
		return
	}
	r.ids = make(map[ctable.TupleID]struct{}, len(r.tuples))
	for _, tp := range r.tuples {
		r.ids[tp.Identity()] = struct{}{}
	}
}

// HasIdentity reports whether a tuple with tp's exact identity (same
// values, same canonical condition) is already present. It always
// reports false when TrackIdentity has not been called.
func (r *Relation) HasIdentity(tp ctable.Tuple) bool {
	if r.ids == nil {
		return false
	}
	_, ok := r.ids[tp.Identity()]
	return ok
}

// ProbeCount returns how many indexed constant probes were served.
func (r *Relation) ProbeCount() int64 { return r.probes.Load() }

// ScanCount returns how many full scans were served.
func (r *Relation) ScanCount() int64 { return r.scans.Load() }

// column is one column's index: consts[v] lists, in ascending store
// order, the indexes of tuples holding constant v there; cvars lists
// those holding a c-variable. The lists cover appended tuples too;
// readers cut them at the watermark (below).
type column struct {
	consts map[cond.Term][]int
	cvars  []int
}

// add indexes value v of tuple idx.
func (c *column) add(v cond.Term, idx int) {
	if v.IsCVar() {
		c.cvars = append(c.cvars, idx)
	} else {
		c.consts[v] = append(c.consts[v], idx)
	}
}

// below returns the prefix of an ascending index list that lies below
// the watermark vis.
func below(l []int, vis int) []int {
	if len(l) == 0 || l[len(l)-1] < vis {
		return l
	}
	return l[:sort.SearchInts(l, vis)]
}

// NewRelation returns an empty indexed relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, cols: make([]atomic.Pointer[column], arity)}
}

// FromTable loads a c-table as a relation. The relation shares the
// table's tuple slice, with its capacity clipped to its length so a
// later Insert reallocates instead of writing into the table's array;
// the table's tuples must not be modified while the relation is in
// use. Tuples of the wrong arity (Insert would reject them) are
// skipped, at the cost of copying the rest.
func FromTable(t *ctable.Table) *Relation {
	r := NewRelation(t.Schema.Name, t.Schema.Arity())
	r.tuples = t.Tuples[:len(t.Tuples):len(t.Tuples)]
	for _, tp := range t.Tuples {
		if len(tp.Values) != r.Arity {
			r.tuples = nil
			for _, tp := range t.Tuples {
				if len(tp.Values) == r.Arity {
					r.tuples = append(r.tuples, tp)
				}
			}
			break
		}
	}
	r.vis = len(r.tuples)
	return r
}

// column returns column c's index, building it on first use. Safe for
// concurrent readers: builds serialize on the relation's lock and the
// index is published only once complete.
func (r *Relation) column(c int) *column {
	if col := r.cols[c].Load(); col != nil {
		return col
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if col := r.cols[c].Load(); col != nil {
		return col
	}
	col := &column{consts: map[cond.Term][]int{}}
	for idx, tp := range r.tuples {
		col.add(tp.Values[c], idx)
	}
	r.cols[c].Store(col)
	return col
}

// Insert adds a tuple, indexes its columns and publishes it.
func (r *Relation) Insert(tp ctable.Tuple) error {
	if err := r.Append(tp); err != nil {
		return err
	}
	r.Publish()
	return nil
}

// Append adds a tuple above the watermark and indexes its columns:
// reads do not see it until Publish.
func (r *Relation) Append(tp ctable.Tuple) error {
	if faultinject.Armed() {
		if err := faultinject.Fire(faultinject.RelstoreInsert); err != nil {
			return err
		}
	}
	if len(tp.Values) != r.Arity {
		return fmt.Errorf("relstore: arity mismatch inserting into %s: got %d, want %d", r.Name, len(tp.Values), r.Arity)
	}
	idx := len(r.tuples)
	r.tuples = append(r.tuples, tp)
	if r.ids != nil {
		r.ids[tp.Identity()] = struct{}{}
	}
	// Only columns some probe has read are indexed; the rest are built
	// from the full tuple list when first probed.
	for c, v := range tp.Values {
		if col := r.cols[c].Load(); col != nil {
			col.add(v, idx)
		}
	}
	return nil
}

// Publish raises the watermark over every appended tuple and returns
// the index range [lo, hi) it made visible.
func (r *Relation) Publish() (lo, hi int) {
	lo, r.vis = r.vis, len(r.tuples)
	return lo, r.vis
}

// Len returns the published tuple count: the watermark.
func (r *Relation) Len() int { return r.vis }

// Tuple returns the i-th tuple.
func (r *Relation) Tuple(i int) ctable.Tuple { return r.tuples[i] }

// All returns every published tuple index (a full scan).
func (r *Relation) All() []int {
	r.scans.Add(1)
	return r.allIdxs()
}

// allIdxs builds the full index list without touching the counters, so
// probe fallbacks are not double-counted as deliberate scans.
func (r *Relation) allIdxs() []int {
	out := make([]int, r.vis)
	for i := range out {
		out[i] = i
	}
	return out
}

// Candidates returns the indexes of tuples that could match the given
// constant at the given column: the indexed constant bucket plus every
// tuple holding a c-variable there (such a tuple matches when its
// condition admits cvar = key).
//
// Aliasing contract: when the column has only a constant bucket or only
// c-variable entries, the returned slice ALIASES internal index storage
// and must not be mutated; only the merged consts+cvars path allocates.
// Callers that need to sort or edit the result must copy it first.
func (r *Relation) Candidates(col int, key cond.Term) []int {
	if key.IsCVar() || col < 0 || col >= r.Arity {
		r.fallbacks.Add(1)
		return r.allIdxs()
	}
	r.probes.Add(1)
	c := r.column(col)
	consts, cvars := below(c.consts[key], r.vis), below(c.cvars, r.vis)
	if len(cvars) == 0 {
		return consts
	}
	if len(consts) == 0 {
		return cvars
	}
	out := make([]int, 0, len(consts)+len(cvars))
	out = append(out, consts...)
	out = append(out, cvars...)
	return out
}

// ColStats are the planner-facing per-column statistics: how selective
// a constant probe on this column is expected to be. They are read off
// the column's index (built on the first read), which Append keeps
// current, so reading them is O(1) after that. They count appended
// tuples too: an estimate needs no exact watermark.
type ColStats struct {
	Distinct int // distinct constant values indexed at this column
	CVars    int // tuples holding a c-variable at this column
}

// EstCandidates estimates how many tuple indexes a constant probe on a
// column with these statistics returns, out of n tuples total: the
// average constant bucket plus every c-variable tuple (which joins any
// probe). A column with no constants at all estimates as the c-var list.
func (cs ColStats) EstCandidates(n int) float64 {
	est := float64(cs.CVars)
	if cs.Distinct > 0 {
		est += float64(n-cs.CVars) / float64(cs.Distinct)
	}
	return est
}

// ColStats returns the statistics for one column; the zero value for an
// out-of-range column.
func (r *Relation) ColStats(col int) ColStats {
	if col < 0 || col >= r.Arity {
		return ColStats{}
	}
	c := r.column(col)
	return ColStats{Distinct: len(c.consts), CVars: len(c.cvars)}
}

// CandidatesMulti intersects the candidate lists of several
// constant-bound columns: a tuple survives only if, at every probed
// column, it either holds the probed constant or holds a c-variable.
// That is exactly the conjunction of the per-column Candidates sets, so
// the result is always a subset of (and never misses a match of) any
// single-column probe. Columns with a c-variable key or out of range
// are skipped (they constrain nothing the index can see). With no
// usable column the call degrades to a counted fallback scan.
//
// The returned slice is freshly allocated and sorted by store index.
func (r *Relation) CandidatesMulti(cols []int, keys []cond.Term) []int {
	// Gather the per-column candidate sets, skipping unusable columns.
	lists := make([][]int, 0, len(cols))
	for i, col := range cols {
		if i >= len(keys) || keys[i].IsCVar() || col < 0 || col >= r.Arity {
			continue
		}
		c := r.column(col)
		consts, cvars := below(c.consts[keys[i]], r.vis), below(c.cvars, r.vis)
		var l []int
		switch {
		case len(cvars) == 0:
			l = consts
		case len(consts) == 0:
			l = cvars
		default:
			// Both buckets are in increasing store-index order
			// (append-only inserts), so a linear merge keeps the union
			// sorted.
			l = make([]int, 0, len(consts)+len(cvars))
			a, b := consts, cvars
			for len(a) > 0 && len(b) > 0 {
				if a[0] < b[0] {
					l = append(l, a[0])
					a = a[1:]
				} else {
					l = append(l, b[0])
					b = b[1:]
				}
			}
			l = append(l, a...)
			l = append(l, b...)
		}
		lists = append(lists, l)
	}
	if len(lists) == 0 {
		r.fallbacks.Add(1)
		return r.allIdxs()
	}
	r.multiProbes.Add(1)
	// Intersect starting from the smallest list; every list is sorted by
	// store index, so intersection is a linear walk.
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := append([]int(nil), lists[0]...)
	for _, l := range lists[1:] {
		if len(out) == 0 {
			break
		}
		r.intersections.Add(1)
		w := 0
		j := 0
		for _, v := range out {
			for j < len(l) && l[j] < v {
				j++
			}
			if j < len(l) && l[j] == v {
				out[w] = v
				w++
			}
		}
		out = out[:w]
	}
	return out
}

// Table returns the published tuples as a c-table that shares the
// relation's tuple array, capacity clipped: Insert or append on the
// table reallocates, but writing one of its elements in place writes
// the relation's, and every other table sharing the array.
func (r *Relation) Table(attrs []string) *ctable.Table {
	if attrs == nil {
		attrs = make([]string, r.Arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
	}
	return &ctable.Table{Schema: ctable.Schema{Name: r.Name, Attrs: attrs}, Tuples: r.tuples[:r.vis:r.vis]}
}

// Store is a set of indexed relations.
type Store struct {
	rels map[string]*Relation
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{rels: map[string]*Relation{}} }

// FromDatabase loads every table of a c-table database (see FromTable).
func FromDatabase(db *ctable.Database) *Store {
	s := NewStore()
	for _, t := range db.Tables {
		s.Load(t)
	}
	return s
}

// Load adds a c-table to the store under its name (see FromTable),
// replacing any relation of that name.
func (s *Store) Load(t *ctable.Table) { s.rels[t.Schema.Name] = FromTable(t) }

// Rel returns the named relation, or nil.
func (s *Store) Rel(name string) *Relation { return s.rels[name] }

// Ensure returns the named relation, creating it when missing.
func (s *Store) Ensure(name string, arity int) *Relation {
	r, ok := s.rels[name]
	if !ok {
		r = NewRelation(name, arity)
		s.rels[name] = r
	}
	return r
}

// Replace swaps in a rebuilt relation under the given name.
func (s *Store) Replace(name string, r *Relation) { s.rels[name] = r }

// Names returns the sorted relation names.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalTuples sums the published tuple counts over all relations.
func (s *Store) TotalTuples() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Counters sums the lookup counters over all relations.
func (s *Store) Counters() Counters {
	var c Counters
	for _, r := range s.rels {
		c.Add(r.Counters())
	}
	return c
}
