// Package solver decides satisfiability, implication and equivalence
// of fauré conditions (package cond). It substitutes for the Z3 SMT
// solver used by the paper's PostgreSQL implementation: every formula
// fauré-log can produce — boolean combinations of (dis)equalities and
// order atoms over string/integer constants and c-variables, plus
// linear sums over finite-domain c-variables — falls in the decidable
// fragment this package handles soundly and, for the conditions the
// fauré workloads generate, completely.
//
// Known incompleteness (deliberate, documented): chains of pairwise
// disequalities between *unbounded* integer c-variables whose order
// atoms pin them into a shared *large* finite interval are decided by
// a bounded enumeration only up to 4096 combinations (the pigeonhole
// shape, e.g. x,y,z ∈ [0,1] all pairwise distinct, is decided
// exactly); beyond that cap the answer over-approximates to
// satisfiable. The error is one-sided and benign for fauré:
// Satisfiable may over-approximate (an unsatisfiable tuple is merely
// kept, existing in no world), and Implies under-approximates (a
// verifier answers Unknown rather than wrongly Holds). Declaring the
// variables with finite domains — as every fauré workload does —
// sidesteps the cap entirely via domain enumeration.
//
// A satisfiability decision takes the first rung of one ladder that
// applies:
//
//  1. the cache: a verdict recorded for the same interned formula;
//  2. the compiled table, when every c-variable of the formula has a
//     finite domain and their assignments number at most fdMaxSpace:
//     one bit per assignment, built node by node over the interned DAG
//     and memoised per node, decided with no search;
//  3. search: c-variables with finite domains are eliminated by
//     backtracking enumeration with eager formula simplification, and
//     the residual formula, over unbounded c-variables only, is decided
//     by DPLL-style case splitting on atoms, with each branch checked
//     against an equality/order theory (union-find over terms, integer
//     bound propagation over the order graph, exclusion sets from
//     disequalities).
//
// Valid and Implies reduce to satisfiability; Valid first reads a
// validity the cache holds. Cover decides an implication whose
// right-hand side is a disjunction as a subset test of compiled tables
// widened to every finite-domain c-variable, and leaves what it cannot
// represent to Implies.
package solver

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/faultinject"
	"faure/internal/obs"
)

// Domain describes the set of values a c-variable may take. A nil or
// empty Values slice means the domain is unbounded: an infinite set of
// strings, or all integers when the variable participates in order or
// sum atoms.
type Domain struct {
	Values []cond.Term
}

// Finite reports whether the domain is a finite explicit set.
func (d Domain) Finite() bool { return len(d.Values) > 0 }

// BoolDomain is the {0, 1} domain used for link-state c-variables.
func BoolDomain() Domain {
	return Domain{Values: []cond.Term{cond.Int(0), cond.Int(1)}}
}

// EnumDomain builds a finite domain from the given terms.
func EnumDomain(values ...cond.Term) Domain {
	return Domain{Values: values}
}

// Domains maps c-variable names to their domains. Variables absent
// from the map are unbounded.
type Domains map[string]Domain

// Stats counts the work a solver has performed.
type Stats struct {
	SatCalls  int // top-level satisfiability decisions
	CacheHits int // decisions answered from a cached certificate
	// CertHits counts Valid calls answered by a validity the cache
	// holds for the formula itself, without deciding its negation.
	CertHits int
	// FastPathHits counts decisions by the compiled finite-domain
	// bitset fast path; FDNodes is how many DAG nodes it compiled.
	FastPathHits int
	FDNodes      int
	EnumNodes    int // finite-domain enumeration tree nodes visited
	DPLLNodes    int // residual case-split nodes visited
	// Evictions counts certificate-store entries this solver's bounded
	// cache clock-evicted to admit new ones.
	Evictions int
}

// Searches is the number of top-level decisions that reached actual
// search (enumeration or DPLL): SatCalls minus the decisions the cache
// and the compiled table answered. This is the denominatorless form of
// the "sat calls per derived tuple" metric the benchmarks track.
func (s Stats) Searches() int {
	return s.SatCalls - s.CacheHits - s.CertHits - s.FastPathHits
}

// Solver decides conditions under a fixed domain map. It memoises
// results by canonical formula key. A Solver is not safe for
// concurrent use; each evaluation creates its own.
type Solver struct {
	doms Domains
	// cache holds the solver's certificate entries.
	cache certStore
	stats Stats
	// o receives per-call latency, cache hit rate, and condition-size
	// distributions; obsOn gates every site so an unobserved solver
	// pays one branch and no clock reads.
	o     obs.Observer
	obsOn bool
	// bud charges every search node (enumeration, DPLL, and fd
	// compilation) to a shared step budget; nil disables accounting.
	bud *budget.B
	// world is the set tests' assignment space, fixed at the first
	// NewCover (worldSet); nil when there is none. widened buffers the
	// world tables one set-test call computes until it completes.
	world    *fdTable
	worldSet bool
	widened  []widenedNode
}

// cert is the certificate attached to an interned formula id: cached
// three-valued satisfiability and validity verdicts plus the formula's
// compiled finite-domain tables, which parent formulas compile from.
// sat and valid are three-valued (+1 yes, -1 no, 0 undecided) so a
// validity-only certificate never reads as "unsatisfiable".
type cert struct {
	sat   int8
	valid int8
	err   error
	fd    *fdTable // compiled finite-domain lattice element; may be nil
	wide  []uint64 // the formula's table widened into the world; may be nil
}

// decidedSat reports whether the certificate answers a satisfiability
// query outright (a cached non-budget error counts: re-running the
// search would reproduce it).
func (c cert) decidedSat() bool { return c.sat != 0 || c.err != nil }

// certStore is a bounded certificate map with clock (FIFO) eviction:
// once the map reaches its limit, each new entry overwrites the oldest
// one instead of being dropped, so long runs past the cap keep
// benefiting from recent formulas. Eviction never changes an answer: a
// compilation in flight holds the child tables it was handed. Keys are
// interned formula ids (cond.Formula.ID) — process-local, so the store
// must never be serialised; as a pure cache that is fine.
type certStore struct {
	limit int
	m     map[uint64]*cert
	ring  []uint64 // insertion ring; ring[pos] is the next eviction candidate
	pos   int
}

func newCertStore(limit int) certStore {
	return certStore{limit: limit, m: make(map[uint64]*cert)}
}

func (c *certStore) get(k uint64) (*cert, bool) {
	e, ok := c.m[k]
	return e, ok
}

// put inserts an entry under a key the store does not hold, evicting
// the oldest entry when the store is full. It reports whether an entry
// was evicted.
func (c *certStore) put(k uint64, e *cert) bool {
	if len(c.m) < c.limit {
		c.ring = append(c.ring, k)
		c.m[k] = e
		return false
	}
	delete(c.m, c.ring[c.pos])
	c.ring[c.pos] = k
	c.pos = (c.pos + 1) % len(c.ring)
	c.m[k] = e
	return true
}

func (c *certStore) len() int { return len(c.m) }

func (c *certStore) reset(limit int) {
	c.limit = limit
	c.m = make(map[uint64]*cert)
	c.ring = nil
	c.pos = 0
}

// DefaultCacheLimit bounds a solver's certificate cache unless
// SetCacheLimit overrides it.
const DefaultCacheLimit = 1 << 20

// New returns a solver over the given domains. The map is captured by
// reference; callers may keep registering variables before use but
// must not mutate it concurrently with solving.
func New(doms Domains) *Solver {
	return &Solver{doms: doms, cache: newCertStore(DefaultCacheLimit), o: obs.Nop}
}

// SetObserver routes the solver's metrics — sat/implication latency,
// cache hit rate, condition-size distribution, simplification hit rate
// — to o. Nil restores the no-op default.
func (s *Solver) SetObserver(o obs.Observer) {
	s.o = obs.OrNop(o)
	s.obsOn = o != nil && o.Enabled()
}

// SetBudget charges this solver's search nodes to b; each node in the
// finite-domain enumeration and the residual DPLL split costs one
// step. A nil b (the default) disables accounting. A budget trip
// surfaces as a *budget.Exceeded error from Satisfiable/Implies; the
// error is sticky, so a tripped solver keeps refusing until it is
// handed a fresh budget.
func (s *Solver) SetBudget(b *budget.B) { s.bud = b }

// SetCacheLimit bounds the certificate cache, resetting its contents;
// 0 disables memoisation AND the compiled finite-domain tables, with
// them the set tests of Cover — the resulting pure-search solver is the
// baseline the ablation benches and the differential fuzz tests
// compare against. Past the limit the cache clock-evicts the oldest
// entry rather than refusing new ones.
func (s *Solver) SetCacheLimit(n int) { s.cache.reset(n) }

// fastOn reports whether the compiled tables may be used: they live in
// the certificate cache, so they are meaningless (and would recompile
// per call) with caching disabled.
func (s *Solver) fastOn() bool { return s.cache.limit > 0 }

// Stats returns a copy of the solver's counters.
func (s *Solver) Stats() Stats { return s.stats }

// store records c under key in the solver's cache, merging with
// any existing entry: only undecided fields are filled in, so a
// validity upgrade never clobbers a compiled fd table.
func (s *Solver) store(key uint64, c cert) {
	if s.cache.limit <= 0 {
		return
	}
	if e, ok := s.cache.get(key); ok {
		if e.sat == 0 {
			e.sat = c.sat
		}
		if e.valid == 0 {
			e.valid = c.valid
		}
		if e.err == nil {
			e.err = c.err
		}
		if e.fd == nil {
			e.fd = c.fd
		}
		if e.wide == nil {
			e.wide = c.wide
		}
		return
	}
	if s.cache.put(key, &c) {
		s.stats.Evictions++
	}
}

func (s *Solver) countObs(name string) {
	if s.obsOn {
		s.o.Count(name, 1)
	}
}

// Satisfiable reports whether some assignment of the c-variables,
// respecting their domains, makes f true.
func (s *Solver) Satisfiable(f *cond.Formula) (bool, error) {
	s.stats.SatCalls++
	if faultinject.Armed() {
		if err := faultinject.Fire(faultinject.SolverSat); err != nil {
			return false, err
		}
	}
	switch f.Kind {
	case cond.FTrue:
		return true, nil
	case cond.FFalse:
		return false, nil
	}
	var start time.Time
	if s.obsOn {
		start = time.Now()
		s.o.Count("solver.sat_calls", 1)
		s.o.Observe("solver.condition_atoms", float64(f.NAtoms()))
	}
	key := f.ID()
	if e, ok := s.cache.get(key); ok && e.decidedSat() {
		s.stats.CacheHits++
		if s.obsOn {
			s.o.Count("solver.cache_hits", 1)
			s.o.ObserveDuration("solver.sat_latency", time.Since(start))
		}
		return e.sat > 0, e.err
	}
	c := s.decide(f)
	// A budget trip is a property of this run, not of the formula:
	// caching it would poison the memo for a later run under a fresh
	// budget.
	if _, budgetErr := budget.As(c.err); !budgetErr {
		s.store(key, c)
	}
	if s.obsOn {
		s.o.ObserveDuration("solver.sat_latency", time.Since(start))
		s.o.SetGauge("solver.cache_size", float64(s.cache.len()))
	}
	return c.sat > 0, c.err
}

// decide computes a fresh certificate for f: the compiled finite-domain
// table when f lies in its fragment, general search otherwise.
func (s *Solver) decide(f *cond.Formula) cert {
	if s.fastOn() {
		t, err := s.compileFD(f)
		if err == nil {
			s.stats.FastPathHits++
			s.countObs("solver.fastpath_hits")
			return certFromFD(t)
		}
		if !errors.Is(err, errFDUnsupported) {
			return cert{err: err} // budget trip mid-compilation
		}
	}
	sat, err := s.enumerate(f)
	c := cert{err: err}
	switch {
	case sat:
		c.sat = 1
	case err == nil:
		c.sat = -1
		c.valid = -1 // unsat is false everywhere, hence falsifiable
	}
	return c
}

// Valid reports whether f holds under every assignment. A cached
// validity certificate (recorded by earlier Valid calls and by the
// compiled tables) answers without touching ¬f.
func (s *Solver) Valid(f *cond.Formula) (bool, error) {
	switch f.Kind {
	case cond.FTrue:
		return true, nil
	case cond.FFalse:
		return false, nil
	}
	if e, ok := s.cache.get(f.ID()); ok && e.err == nil && e.valid != 0 {
		s.stats.SatCalls++
		s.stats.CertHits++
		s.countObs("solver.cert_hits")
		return e.valid > 0, nil
	}
	sat, err := s.Satisfiable(cond.Not(f))
	if err == nil {
		s.noteValid(f, !sat)
	}
	return !sat, err
}

// noteValid upgrades f's cached certificate with a validity
// verdict; domains are non-empty, so valid also implies satisfiable.
func (s *Solver) noteValid(f *cond.Formula, valid bool) {
	if s.cache.limit <= 0 {
		return
	}
	c := cert{valid: -1}
	if valid {
		c = cert{sat: 1, valid: 1}
	}
	s.store(f.ID(), c)
}

// Implies reports whether every assignment satisfying f also satisfies
// g (f ⇒ g), i.e. f ∧ ¬g is unsatisfiable.
func (s *Solver) Implies(f, g *cond.Formula) (bool, error) {
	if !s.obsOn {
		sat, err := s.Satisfiable(cond.And(f, cond.Not(g)))
		return !sat, err
	}
	start := time.Now()
	s.o.Count("solver.implies_calls", 1)
	sat, err := s.Satisfiable(cond.And(f, cond.Not(g)))
	s.o.ObserveDuration("solver.implies_latency", time.Since(start))
	return !sat, err
}

// Equivalent reports whether f and g are satisfied by exactly the same
// assignments.
func (s *Solver) Equivalent(f, g *cond.Formula) (bool, error) {
	fg, err := s.Implies(f, g)
	if err != nil || !fg {
		return false, err
	}
	return s.Implies(g, f)
}

// enumerate eliminates finite-domain c-variables one at a time,
// substituting each candidate value and recursing on the simplified
// formula; once only unbounded variables remain it falls through to
// the residual DPLL procedure.
func (s *Solver) enumerate(f *cond.Formula) (bool, error) {
	s.stats.EnumNodes++
	if err := s.bud.SolverStep(); err != nil {
		return false, err
	}
	switch f.Kind {
	case cond.FTrue:
		return true, nil
	case cond.FFalse:
		return false, nil
	}
	name, dom, ok := s.pickFiniteVar(f)
	if !ok {
		return s.satResidual(f, nil)
	}
	var firstErr error
	for _, v := range dom.Values {
		sat, err := s.enumerate(f.Subst(map[string]cond.Term{name: v}))
		if err != nil {
			// Budget exhaustion aborts the whole search: with branches
			// unexplored the answer would be unsound either way.
			if _, ok := budget.As(err); ok {
				return false, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if sat {
			return true, nil
		}
	}
	return false, firstErr
}

// pickFiniteVar returns the free c-variable of f with the smallest
// finite domain, or ok=false when all free variables are unbounded.
func (s *Solver) pickFiniteVar(f *cond.Formula) (string, Domain, bool) {
	var best string
	var bestDom Domain
	found := false
	for _, name := range f.CVars() {
		d, ok := s.doms[name]
		if !ok || !d.Finite() {
			continue
		}
		if !found || len(d.Values) < len(bestDom.Values) {
			best, bestDom, found = name, d, true
		}
	}
	return best, bestDom, found
}

// literal is an atom together with its assigned truth value.
type literal struct {
	atom cond.Atom
	val  bool
}

// satResidual decides a formula whose free c-variables are all
// unbounded, by splitting on its first atom and checking each complete
// branch against the equality/order theory.
func (s *Solver) satResidual(f *cond.Formula, lits []literal) (bool, error) {
	s.stats.DPLLNodes++
	if err := s.bud.SolverStep(); err != nil {
		return false, err
	}
	switch f.Kind {
	case cond.FFalse:
		return false, nil
	case cond.FTrue:
		return theoryConsistent(lits)
	}
	a, ok := f.FirstAtom()
	if !ok {
		// Canonicalisation guarantees atoms exist for FAtom/FAnd/FOr/FNot.
		return false, fmt.Errorf("solver: formula %v has no atoms", f)
	}
	na := a.Negate()
	var firstErr error
	for _, val := range [2]bool{true, false} {
		g := f.AssignAtom(a, val).AssignAtom(na, !val)
		branch := append(lits, literal{a, val})
		// Early pruning: abandon the branch as soon as the literal set
		// is already inconsistent.
		okSoFar, err := theoryConsistent(branch)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !okSoFar {
			continue
		}
		sat, err := s.satResidual(g, branch)
		if err != nil {
			if _, ok := budget.As(err); ok {
				return false, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if sat {
			return true, nil
		}
	}
	return false, firstErr
}

// ErrUnboundedSum reports a linear-sum atom over a c-variable with no
// finite domain; such formulas are outside the supported fragment
// (the paper's sum conditions always range over {0,1} link variables).
var ErrUnboundedSum = errors.New("solver: linear sum over unbounded c-variable")

// theoryConsistent decides whether a conjunction of comparison
// literals over unbounded c-variables and constants is satisfiable.
func theoryConsistent(lits []literal) (bool, error) {
	uf := newUnionFind()
	type rel struct {
		l, r   cond.Term
		strict bool
	}
	var orders []rel // l < r or l <= r
	var disequals [][2]cond.Term

	for _, lit := range lits {
		a := lit.atom
		if len(a.Sum) > 1 {
			return false, fmt.Errorf("%w: %v", ErrUnboundedSum, a)
		}
		op := a.Op
		if !lit.val {
			op = op.Negate()
		}
		l, r := a.Sum[0], a.RHS
		switch op {
		case cond.Eq:
			uf.union(l, r)
		case cond.Ne:
			disequals = append(disequals, [2]cond.Term{l, r})
		case cond.Lt:
			orders = append(orders, rel{l, r, true})
		case cond.Le:
			orders = append(orders, rel{l, r, false})
		case cond.Gt:
			orders = append(orders, rel{r, l, true})
		case cond.Ge:
			orders = append(orders, rel{r, l, false})
		}
	}

	// Equality closure: merging two distinct constants is contradictory.
	if uf.conflict {
		return false, nil
	}
	// Disequalities within one equality class are contradictory.
	for _, d := range disequals {
		if uf.find(d[0]) == uf.find(d[1]) {
			return false, nil
		}
	}

	// Integer order reasoning over equality classes. Each class has an
	// interval [lo, hi]; constants pin it. Order edges propagate bounds
	// Bellman-Ford style; a persistent change after n rounds means a
	// cycle through a strict edge.
	classes := map[string]*classInfo{}
	classOf := func(t cond.Term) (*classInfo, error) {
		root := uf.find(t)
		ci := classes[root]
		if ci == nil {
			ci = &classInfo{lo: math.MinInt64 / 4, hi: math.MaxInt64 / 4, excluded: map[int64]bool{}}
			if c, ok := uf.constOf[root]; ok {
				if c.Kind == cond.KStr {
					return nil, fmt.Errorf("solver: order comparison over string constant %q", c.S)
				}
				ci.lo, ci.hi = c.I, c.I
			}
			classes[root] = ci
		}
		return ci, nil
	}
	type edge struct {
		from, to *classInfo
		strict   bool
	}
	edges := make([]edge, 0, len(orders))
	for _, o := range orders {
		lc, err := classOf(o.l)
		if err != nil {
			return false, err
		}
		rc, err := classOf(o.r)
		if err != nil {
			return false, err
		}
		if lc == rc {
			if o.strict {
				return false, nil // x < x
			}
			continue
		}
		edges = append(edges, edge{lc, rc, o.strict})
	}
	for round := 0; round <= len(classes)+1; round++ {
		changed := false
		for _, e := range edges {
			gap := int64(0)
			if e.strict {
				gap = 1
			}
			if e.from.lo+gap > e.to.lo {
				e.to.lo = e.from.lo + gap
				changed = true
			}
			if e.to.hi-gap < e.from.hi {
				e.from.hi = e.to.hi - gap
				changed = true
			}
		}
		if !changed {
			break
		}
		if round == len(classes)+1 {
			return false, nil // cycle through a strict edge
		}
	}
	for _, ci := range classes {
		if ci.lo > ci.hi {
			return false, nil
		}
	}

	// Disequalities against pinned classes exclude single values; a
	// fully-excluded finite interval is contradictory. Disequalities
	// between two unpinned classes are always satisfiable (infinite
	// domains), except when both intervals are the same single point.
	for _, d := range disequals {
		lr, rr := uf.find(d[0]), uf.find(d[1])
		lc, lHas := uf.constOf[lr]
		rc, rHas := uf.constOf[rr]
		if lHas && rHas {
			if lc.Equal(rc) {
				return false, nil
			}
			continue
		}
		li, lok := classes[lr]
		ri, rok := classes[rr]
		switch {
		case lHas && rok:
			if lc.Kind == cond.KInt {
				ri.excluded[lc.I] = true
			}
		case rHas && lok:
			if rc.Kind == cond.KInt {
				li.excluded[rc.I] = true
			}
		case lok && rok:
			if li.lo == li.hi && ri.lo == ri.hi && li.lo == ri.lo {
				return false, nil
			}
		}
		// String-typed classes with no constants always admit distinct
		// fresh values; nothing to check.
	}
	for _, ci := range classes {
		span := ci.hi - ci.lo + 1
		if span <= int64(len(ci.excluded)) {
			free := false
			for v := ci.lo; v <= ci.hi; v++ {
				if !ci.excluded[v] {
					free = true
					break
				}
			}
			if !free {
				return false, nil
			}
		}
	}

	// Bounded-interval refinement: pairwise disequalities between
	// unpinned integer classes interact through shared narrow
	// intervals (the pigeonhole shape). When every class reachable
	// from such a disequality through order edges has a small finite
	// interval, decide exactly by enumeration; otherwise keep the
	// sound over-approximation (see the package comment).
	var varvar [][2]*classInfo
	interesting := map[*classInfo]bool{}
	for _, d := range disequals {
		lr, rr := uf.find(d[0]), uf.find(d[1])
		if _, has := uf.constOf[lr]; has {
			continue
		}
		if _, has := uf.constOf[rr]; has {
			continue
		}
		li, lok := classes[lr]
		ri, rok := classes[rr]
		if !lok || !rok {
			continue // a side with no order info ranges over an infinite domain
		}
		varvar = append(varvar, [2]*classInfo{li, ri})
		interesting[li] = true
		interesting[ri] = true
	}
	if len(varvar) > 0 {
		for changed := true; changed; {
			changed = false
			for _, e := range edges {
				if interesting[e.from] != interesting[e.to] {
					interesting[e.from] = true
					interesting[e.to] = true
					changed = true
				}
			}
		}
		const enumCap = 4096
		product := int64(1)
		feasible := true
		var list []*classInfo
		for ci := range interesting {
			span := ci.hi - ci.lo + 1
			if span <= 0 || span > enumCap {
				feasible = false
				break
			}
			product *= span
			if product > enumCap {
				feasible = false
				break
			}
			list = append(list, ci)
		}
		if feasible {
			assign := map[*classInfo]int64{}
			var rec func(i int) bool
			rec = func(i int) bool {
				if i == len(list) {
					for _, e := range edges {
						if !interesting[e.from] {
							continue
						}
						a, b := assign[e.from], assign[e.to]
						if e.strict && a >= b || !e.strict && a > b {
							return false
						}
					}
					for _, p := range varvar {
						if assign[p[0]] == assign[p[1]] {
							return false
						}
					}
					return true
				}
				ci := list[i]
				for v := ci.lo; v <= ci.hi; v++ {
					if ci.excluded[v] {
						continue
					}
					assign[ci] = v
					if rec(i + 1) {
						return true
					}
				}
				return false
			}
			if !rec(0) {
				return false, nil
			}
		}
	}
	return true, nil
}

type classInfo struct {
	lo, hi   int64
	excluded map[int64]bool
}

// unionFind merges c-domain terms into equality classes, tracking the
// constant (if any) each class is pinned to.
type unionFind struct {
	parent   map[string]string
	constOf  map[string]cond.Term
	conflict bool
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[string]string{}, constOf: map[string]cond.Term{}}
}

func termNodeKey(t cond.Term) string {
	switch t.Kind {
	case cond.KCVar:
		return "$" + t.S
	case cond.KInt:
		return fmt.Sprintf("i%d", t.I)
	default:
		return "s" + t.S
	}
}

func (u *unionFind) findKey(k string) string {
	p, ok := u.parent[k]
	if !ok || p == k {
		u.parent[k] = k
		return k
	}
	root := u.findKey(p)
	u.parent[k] = root
	return root
}

func (u *unionFind) find(t cond.Term) string {
	k := termNodeKey(t)
	root := u.findKey(k)
	if t.IsConst() {
		if _, ok := u.constOf[root]; !ok {
			u.constOf[root] = t
		}
	}
	return root
}

func (u *unionFind) union(a, b cond.Term) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	ca, aHas := u.constOf[ra]
	cb, bHas := u.constOf[rb]
	if aHas && bHas && !ca.Equal(cb) {
		u.conflict = true
		return
	}
	u.parent[ra] = rb
	if aHas && !bHas {
		u.constOf[rb] = ca
	}
}

// Worlds enumerates every total assignment of the named finite-domain
// variables, calling fn for each; fn returning false stops early. It
// is exported for the loss-lessness tests that compare c-table queries
// against explicit possible-world enumeration. Variables must all have
// finite domains.
func (s *Solver) Worlds(names []string, fn func(map[string]cond.Term) bool) error {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	assign := map[string]cond.Term{}
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(sorted) {
			return fn(assign), nil
		}
		d, ok := s.doms[sorted[i]]
		if !ok || !d.Finite() {
			return false, fmt.Errorf("solver: Worlds over unbounded c-variable %q", sorted[i])
		}
		for _, v := range d.Values {
			assign[sorted[i]] = v
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		delete(assign, sorted[i])
		return true, nil
	}
	_, err := rec(0)
	return err
}

// CountWorlds returns how many assignments of the named finite-domain
// variables satisfy f — "in how many failure scenarios does this
// hold". Variables not mentioned by f still multiply the count (they
// are part of the world space the caller chose).
func (s *Solver) CountWorlds(f *cond.Formula, names []string) (int, error) {
	count := 0
	var evalErr error
	err := s.Worlds(names, func(m map[string]cond.Term) bool {
		g := f.Subst(m)
		switch {
		case g.IsTrue():
			count++
		case g.IsFalse():
		default:
			// Residual unbounded variables: ask the full decision
			// procedure whether this world admits an extension.
			sat, err := s.Satisfiable(g)
			if err != nil {
				evalErr = err
				return false
			}
			if sat {
				count++
			}
		}
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	return count, err
}
