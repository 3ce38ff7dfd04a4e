package faurelog

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/obs"
	"faure/internal/prov"
	"faure/internal/relstore"
	"faure/internal/solver"
)

// Options tunes evaluation. The zero value asks for defaults: indexed
// matching, eager solver pruning and semantic absorption on.
type Options struct {
	// MaxIterations bounds each stratum's fixpoint; 0 means the
	// default (100000). The bound exists as a safety net: termination
	// is otherwise guaranteed by condition canonicalisation.
	MaxIterations int
	// NoEagerPrune skips the per-derivation satisfiability check (the
	// paper's step 3); contradictory tuples are then removed once at
	// the end. This is ablation knob "eager vs deferred pruning".
	NoEagerPrune bool
	// NoAbsorb disables semantic absorption dedup (dropping a derived
	// tuple whose condition is implied by the disjunction of the
	// conditions already derived for the same data part).
	NoAbsorb bool
	// NoIndex forces full scans instead of hash-index probes in the
	// relational store.
	NoIndex bool
	// NoPlan selects written order for every rule body (negations
	// last), probing at most one indexed column per literal, in place of
	// the cost-guided plan: the ablation knob behind the planner's
	// written-order baseline. Planning never changes results: a
	// reordered plan discovers matches in cost order but emits them in
	// written order, so tables, conditions and row order are bit-for-bit
	// identical either way (see plan.go).
	NoPlan bool
	// NoSolverCache disables the solver's memoisation of
	// satisfiability results, and with it the compiled finite-domain
	// fast path and absorption's set test (ablation knob).
	NoSolverCache bool
	// Prov, when non-nil, records every committed tuple's provenance
	// edge — rule, parent tuple identities, stratum/round — into the
	// recorder (see internal/prov). Recording happens at commit, in
	// emission order, so the recorded edges are as deterministic as the
	// tables. Nil disables recording at zero cost. A bounded recorder
	// (prov.NewRecorder with a positive capacity) caps memory
	// flight-recorder style; the same recorder may span several
	// evaluations (Stats reports this run's deltas).
	Prov *prov.Recorder
	// Observer receives the evaluation's spans (eval → iteration →
	// rule), per-rule derivation counts, and the SQL-vs-solver time
	// split. Nil disables observation: the hot paths then pay a single
	// flag check per site and never read the clock for spans.
	Observer obs.Observer
	// Budget is the live resource tracker the evaluation charges —
	// solver steps, derived tuples, condition sizes, wall clock — and
	// the context that cancels it (budget.New(ctx, budget.Limits{})
	// bounds nothing else). It is polled between fixpoint rounds and
	// rule applications, and every few thousand solver steps and
	// derived conditions within one. A trip or a cancellation is not an
	// error: Eval returns the partial result derived so far, flagged
	// Truncated. Nil disables accounting. Callers that want one budget
	// to span several phases (the verifier's ladder) pass the same
	// tracker to each; the first phase to exhaust it trips them all.
	Budget *budget.B
	// Workers is ignored: evaluation is sequential.
	//
	// Deprecated: the field remains only so that existing callers that
	// set it still compile; it has no effect.
	Workers int
}

func (o Options) maxIters() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 100000
}

// Result is the outcome of an evaluation: the database extended with
// the derived relations, plus statistics. Derivation trees come from
// the recorder passed as Options.Prov (see internal/prov).
//
// DB's tables are fresh Table values, but their Tuples share arrays
// with the input database's tables, with the engine's store and with
// each other, capacity clipped. Table.Insert and append reallocate, so
// growing a result table leaves every other table as it was; writing
// an element in place (tbl.Tuples[i] = ...) writes the shared array
// and must not be done. Build a new slice instead.
type Result struct {
	DB    *ctable.Database
	Stats Stats
	// Truncated is non-nil when a resource budget (or cancellation)
	// stopped the fixpoint early: DB then holds the tuples derived up to
	// the last completed checkpoint, an under-approximation of the true
	// fixpoint. Consumers that need completeness (the verifier) must
	// treat a truncated result as Unknown, never as evidence of absence.
	Truncated *budget.Exceeded
}

// Table returns a derived or input table by name, or nil.
func (r *Result) Table(name string) *ctable.Table { return r.DB.Table(name) }

// Eval computes the program's fixpoint over the c-table database and
// returns the database extended with every derived relation. The input
// database is not modified, and the result shares its tuple arrays (see
// Result). Derived relations shadow same-named input relations in the
// result. Such an input relation's rows appear once in the result,
// ahead of the derivations, and take part in dedup and absorption like
// committed derivations, so evaluating a program over its own result
// derives nothing.
func Eval(prog *Program, db *ctable.Database, opts Options) (*Result, error) {
	e, err := newEngine(prog, db, opts)
	if err != nil {
		return nil, err
	}
	return e.eval(nil)
}

// asExceeded extracts a budget-exhaustion record from err, mapping raw
// context sentinels (as injected by the fault harness or returned by
// third-party code) onto the cancellation kinds.
func asExceeded(err error) *budget.Exceeded {
	if ex, ok := budget.As(err); ok {
		return ex
	}
	if errors.Is(err, context.Canceled) {
		return &budget.Exceeded{Kind: budget.Canceled}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &budget.Exceeded{Kind: budget.Deadline}
	}
	return nil
}

// EvalQuery evaluates the program and returns the named derived table
// (which must exist in the program's IDB).
func EvalQuery(prog *Program, db *ctable.Database, pred string, opts Options) (*ctable.Table, *Result, error) {
	if !prog.IDB()[pred] {
		return nil, nil, fmt.Errorf("faurelog: predicate %s is not defined by the program", pred)
	}
	res, err := Eval(prog, db, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.DB.Table(pred), res, nil
}

type engine struct {
	prog *Program
	// rules holds the program's rules compiled once for this
	// evaluation, index-aligned with prog.Rules.
	rules []*compiledRule
	db    *ctable.Database
	opts  Options
	// store holds only the relations the program reads or writes (plus
	// the relations an increment adds to), loaded before the first
	// round; every other input table reaches the result as it is.
	store *relstore.Store
	sol   *solver.Solver
	// since is nil for Eval. For EvalIncrement it holds each store
	// relation's length before the new facts were seeded (a relation
	// missing from it started empty): the rows past it are what the
	// increment feeds its rules.
	since map[string]int
	// derivedOrder names the predicates the program defines, to build
	// the result database; extraExport lists EDB relations mutated in
	// place (incremental insertions) that the result must also carry.
	derivedOrder []string
	extraExport  []string
	arity        map[string]int
	stats        Stats
	// needSrcs gates the per-match source collection in the executor:
	// true when provenance recording consumes the sources, so a disabled
	// run pays a single flag check.
	needSrcs bool
	// prov is the provenance recorder (nil = off); provStart snapshots
	// its counters at engine construction so Stats reports this run's
	// deltas even when one recorder spans several evaluations.
	// curStratum/curRound locate the round being run; they are written
	// in runRound and read in commit.
	prov       *prov.Recorder
	provStart  prov.Stats
	curStratum int
	curRound   int
	// o receives spans and metrics; obsOn gates every instrumentation
	// site so a disabled run pays one branch and no clock reads.
	o     obs.Observer
	obsOn bool
	// bud is the resolved resource tracker (nil when governance is off);
	// the solver shares it, so its steps drain the same budget.
	bud *budget.B
	// Planner counters: rule applications planned, and those whose plan
	// differs from the written order.
	plansPlanned   int64
	plansReordered int64
	// internStart snapshots the global condition intern table at engine
	// construction, so the run's Stats can report hit/miss deltas.
	internStart cond.InternStats
	// x runs every rule application (plan.go).
	x executor
}

func newEngine(prog *Program, db *ctable.Database, opts Options) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		prog:  prog,
		db:    db,
		opts:  opts,
		store: relstore.NewStore(),
		sol:   solver.New(db.Doms),
		arity: map[string]int{},
		o:     obs.OrNop(opts.Observer),
		obsOn: opts.Observer != nil && opts.Observer.Enabled(),
		bud:   opts.Budget,

		internStart: cond.InternStatsNow(),
	}
	e.x.e = e
	e.sol.SetBudget(e.bud)
	if opts.NoSolverCache {
		e.sol.SetCacheLimit(0)
	}
	if e.obsOn {
		e.sol.SetObserver(opts.Observer)
	}
	if opts.Prov != nil {
		e.prov = opts.Prov
		e.provStart = opts.Prov.Stats()
	}
	e.needSrcs = e.prov != nil
	for pred := range prog.IDB() {
		e.derivedOrder = append(e.derivedOrder, pred)
	}
	e.rules = make([]*compiledRule, len(prog.Rules))
	for i, r := range prog.Rules {
		cr, err := compileRule(r, e.needSrcs)
		if err != nil {
			return nil, err
		}
		e.rules[i] = cr
	}
	// Record arities and load the relations the program names:
	// program predicates plus database relations.
	for _, r := range prog.Rules {
		if err := e.loadLiteral(r.Head); err != nil {
			return nil, err
		}
		for _, a := range r.Body {
			if err := e.loadLiteral(a); err != nil {
				return nil, err
			}
		}
	}
	for name, t := range db.Tables {
		e.noteArity(name, t.Schema.Arity())
	}
	// One group table per derived relation, shared by the rules that
	// derive it and seeded with the relation's input rows, so an input
	// row appears once in the result and takes part in dedup and
	// absorption like a committed derivation.
	groups := map[string]groupTable{}
	for _, cr := range e.rules {
		t, ok := groups[cr.pred]
		if !ok {
			t = seedGroups(e.store.Rel(cr.pred))
			groups[cr.pred] = t
		}
		cr.groups = t
	}
	return e, nil
}

// loadLiteral records a program literal's arity and loads its input
// table, refusing a table whose schema has another arity: the compiled
// rules index a tuple's values by the literal's positions.
func (e *engine) loadLiteral(a Atom) error {
	e.noteArity(a.Pred, len(a.Args))
	if t := e.db.Table(a.Pred); t != nil && t.Schema.Arity() != len(a.Args) {
		return fmt.Errorf("faurelog: relation %s has arity %d, but the program uses it with arity %d", a.Pred, t.Schema.Arity(), len(a.Args))
	}
	e.load(a.Pred)
	return nil
}

// load brings the named input table into the store, once, before the
// first round.
func (e *engine) load(name string) {
	if e.store.Rel(name) != nil {
		return
	}
	if t := e.db.Table(name); t != nil {
		e.store.Load(t)
	}
}

func (e *engine) noteArity(pred string, n int) {
	if _, ok := e.arity[pred]; !ok {
		e.arity[pred] = n
	}
}

// timedSat wraps a solver call, attributing its latency to the solver
// phase rather than the relational phase.
func (e *engine) timedSat(f *cond.Formula) (bool, error) {
	start := time.Now()
	sat, err := e.sol.Satisfiable(f)
	e.stats.SolverTime += time.Since(start)
	e.stats.SatCalls++
	return sat, err
}

// timedImplies is timedSat for an implication.
func (e *engine) timedImplies(f, g *cond.Formula) (bool, error) {
	start := time.Now()
	ok, err := e.sol.Implies(f, g)
	e.stats.SolverTime += time.Since(start)
	e.stats.SatCalls++
	return ok, err
}

// eval runs the strata, unless err (a trip while EvalIncrement seeded
// its facts) already stopped the run; then the deferred final prune
// (when eager pruning is off and the run got this far without error),
// the phase split, the capture of every counter the engine does not
// bump in place, and their publication. A budget trip or cancellation
// is not an error: the result then holds every tuple committed before
// it, flagged with the exhausted budget.
func (e *engine) eval(err error) (*Result, error) {
	start := time.Now()
	var evalSpan obs.Span
	if e.obsOn {
		attrs := []obs.Attr{obs.Int("rules", int64(len(e.prog.Rules)))}
		if e.since != nil {
			attrs = append(attrs, obs.Bool("incremental", true))
		}
		evalSpan = e.o.StartSpan("eval", attrs...)
	}
	if err == nil {
		err = e.runStrata(evalSpan)
	}
	// The increment's commit point: propagation has converged and the
	// result database is about to be assembled. Tests arm this point to
	// fail a converged increment deterministically and check that the
	// caller's database comes through untouched.
	if err == nil && e.since != nil && faultinject.Armed() {
		err = faultinject.Fire(faultinject.FaurelogIncrementCommit)
	}
	if err == nil && e.opts.NoEagerPrune {
		var sp obs.Span
		if e.obsOn {
			sp = evalSpan.StartChild("final-prune")
		}
		err = e.finalPrune()
		if e.obsOn {
			sp.End()
		}
	}
	// The wall clock of the whole run minus the time spent in the
	// solver is the relational ("sql") phase. Both are read once, after
	// every phase (the deferred final prune included), so solver time
	// from later phases cannot leak into the relational column.
	e.stats.SQLTime = time.Since(start) - e.stats.SolverTime
	e.captureSolverStats()
	e.captureInternStats()
	e.captureStoreStats()
	e.captureProvStats()
	if e.obsOn {
		e.stats.report(e.o, evalSpan, e.prov != nil)
		evalSpan.End()
	}
	if err == nil {
		return e.result(), nil
	}
	ex := asExceeded(err)
	if ex == nil {
		return nil, err
	}
	res := e.result()
	res.Truncated = ex
	return res, nil
}

// captureProvStats folds the provenance recorder's counters into the
// run's Stats as deltas since engine construction, so a recorder
// shared across several evaluations still yields per-run attribution.
func (e *engine) captureProvStats() {
	if e.prov == nil {
		return
	}
	now := e.prov.Stats()
	e.stats.ProvEdges = now.Recorded - e.provStart.Recorded
	e.stats.ProvParents = now.Parents - e.provStart.Parents
	e.stats.ProvEvicted = now.Evicted - e.provStart.Evicted
}

// captureSolverStats folds the solver's certificate counters, and its
// cache's clock evictions, into the run's Stats.
func (e *engine) captureSolverStats() {
	ss := e.sol.Stats()
	e.stats.SolverCacheHits = int64(ss.CacheHits)
	e.stats.SolverCertHits = int64(ss.CertHits)
	e.stats.SolverFastPathHits = int64(ss.FastPathHits)
	e.stats.SolverSearches = int64(ss.Searches())
	e.stats.MemoEvictions = int64(ss.Evictions)
}

// captureInternStats folds the condition intern table's counters into
// the run's Stats: hit/miss deltas since engine construction plus the
// current live-node gauge. Other engines in the process move the
// global counters too, so the deltas are an attribution, not an exact
// accounting, under concurrent engines — fine for the benchmark runs
// that read them.
func (e *engine) captureInternStats() {
	now := cond.InternStatsNow()
	e.stats.InternHits = now.Hits - e.internStart.Hits
	e.stats.InternMisses = now.Misses - e.internStart.Misses
	e.stats.InternLive = now.Live
}

// captureStoreStats folds the relation store's lookup counters and the
// planner's decision counters into the run's Stats. Called once at the
// end of a run, after every phase that touches the store.
func (e *engine) captureStoreStats() {
	sc := e.store.Counters()
	e.stats.Probes = sc.Probes
	e.stats.MultiProbes = sc.MultiProbes
	e.stats.Scans = sc.Scans
	e.stats.FallbackScans = sc.Fallbacks
	e.stats.Intersections = sc.Intersections
	e.stats.PlansPlanned = e.plansPlanned
	e.stats.PlansReordered = e.plansReordered
}

// runStrata evaluates each stratum to fixpoint, in dependency order.
func (e *engine) runStrata(evalSpan obs.Span) error {
	strata, err := Stratify(e.prog)
	if err != nil {
		return err
	}
	for si, preds := range strata {
		var rules []*compiledRule
		for _, cr := range e.rules {
			if slices.Contains(preds, cr.pred) {
				rules = append(rules, cr)
			}
		}
		if err := e.evalStratum(rules, evalSpan, si); err != nil {
			return err
		}
	}
	return nil
}

// unit is one rule application of a round: a compiled rule plan and,
// when the plan is fed, the index range [lo, hi) of its first literal's
// relation that the literal reads.
type unit struct {
	p      *rulePlan
	lo, hi int
}

// fedUnits appends to units, for each rule in program order and each
// of its positive body literals in written order, the application
// whose fed literal reads the rows rows(pred) returns for it; an empty
// range adds none.
func fedUnits(units []unit, rules []*compiledRule, rows func(pred string) (lo, hi int)) []unit {
	for _, cr := range rules {
		for i, a := range cr.rule.Body {
			if a.Neg {
				continue
			}
			if lo, hi := rows(a.Pred); lo < hi {
				units = append(units, unit{p: cr.plan(i), lo: lo, hi: hi})
			}
		}
	}
	return units
}

// evalStratum runs one stratum's rounds to fixpoint. Round zero applies
// every rule in full; an increment's round zero instead feeds every
// positive literal the rows its relation gained since the increment
// began. Each later round feeds the rows the stratum's heads gained in
// the round before it, and runs while there are any. Iterations counts
// the rounds after round zero.
func (e *engine) evalStratum(rules []*compiledRule, evalSpan obs.Span, stratum int) error {
	var heads []*relstore.Relation
	for _, cr := range rules {
		cr.rel = e.store.Ensure(cr.pred, len(cr.head))
		if !slices.Contains(heads, cr.rel) {
			heads = append(heads, cr.rel)
		}
	}
	units := make([]unit, 0, len(rules))
	if e.since == nil {
		for _, cr := range rules {
			units = append(units, unit{p: cr.plan(-1)})
		}
	} else {
		units = fedUnits(units, rules, func(pred string) (int, int) {
			if rel := e.store.Rel(pred); rel != nil {
				return e.since[pred], rel.Len()
			}
			return 0, 0
		})
	}
	// fresh[i] is the index range heads[i] gained in the last round.
	fresh := make([][2]int, len(heads))
	gained := func(pred string) (int, int) {
		for i, h := range heads {
			if h.Name == pred {
				return fresh[i][0], fresh[i][1]
			}
		}
		return 0, 0
	}
	for round := 0; ; round++ {
		if round > 0 {
			e.stats.Iterations++
			if round > e.opts.maxIters() {
				return fmt.Errorf("faurelog: fixpoint did not converge within %d iterations", e.opts.maxIters())
			}
		}
		err := e.runRound(units, evalSpan, stratum, round)
		// Round barrier: the tuples committed this round become visible
		// to the next round's joins. Until here every join of the round
		// read the store as of the round's start. This snapshot
		// (Jacobi-style) round fixes the round each tuple is derived in,
		// and with it the engine's row order, which golden_test.go pins:
		// a derivation that needs a same-round tuple fires one round
		// later. On a mid-round budget trip the commits made so far
		// still stand.
		grew := false
		for i, h := range heads {
			fresh[i][0], fresh[i][1] = h.Publish()
			grew = grew || fresh[i][0] < fresh[i][1]
		}
		if err != nil || !grew {
			return err
		}
		units = fedUnits(units[:0], rules, gained)
	}
}

// runRound runs one fixpoint round's units in order: checkpoint,
// iteration span, one rule application per unit.
func (e *engine) runRound(units []unit, evalSpan obs.Span, stratum, round int) error {
	if err := e.checkpoint(stratum, round); err != nil {
		return err
	}
	// Locate this round's commits for provenance recording.
	e.curStratum, e.curRound = stratum, round
	var itSpan obs.Span
	if e.obsOn {
		itSpan = evalSpan.StartChild("iteration",
			obs.Int("stratum", int64(stratum)), obs.Int("round", int64(round)))
	}
	var err error
	for _, u := range units {
		if err = e.deriveRuleObserved(u, itSpan); err != nil {
			break
		}
	}
	if e.obsOn {
		itSpan.End()
	}
	if err != nil {
		return e.annotate(err, stratum, round)
	}
	return nil
}

// checkpoint runs the per-round governance checks: the fault-injection
// point for deterministic iteration failures, then cancellation and
// wall-clock polling.
func (e *engine) checkpoint(stratum, round int) error {
	if faultinject.Armed() {
		if err := faultinject.Fire(faultinject.FaurelogIteration); err != nil {
			return err
		}
	}
	if err := e.bud.Check(fmt.Sprintf("stratum %d round %d", stratum, round)); err != nil {
		return err
	}
	return nil
}

// annotate localises a budget trip that surfaced from deep inside a
// rule application (typically the solver, which only knows "solver"):
// the engine knows the stratum and round, so the structured reason can
// say "solver step budget exhausted at stratum 3".
func (e *engine) annotate(err error, stratum, round int) error {
	if ex, ok := budget.As(err); ok && (ex.Where == "" || ex.Where == "solver") {
		ex.Where = fmt.Sprintf("stratum %d round %d", stratum, round)
	}
	return err
}

// deriveRuleObserved wraps deriveRule in a "rule" span recording the
// head predicate and how many tuples the application derived. With
// observation off it is a tail call into deriveRule.
func (e *engine) deriveRuleObserved(u unit, itSpan obs.Span) error {
	if !e.obsOn {
		return e.deriveRule(u)
	}
	sp := itSpan.StartChild("rule", obs.String("head", u.p.pred))
	before := e.stats.Derived
	err := e.deriveRule(u)
	derived := e.stats.Derived - before
	sp.SetAttrs(obs.Int("derived", derived))
	sp.End()
	e.o.Count("eval.rule_derived."+u.p.pred, derived)
	return err
}

// deriveRule runs one rule application on the executor: discovery in
// the planner's order when the plan reorders the positive literals, in
// written order otherwise (NoPlan, one positive literal, or a plan
// equal to written order); the fed literal reads the unit's range.
// Every match reaches emit in written order.
func (e *engine) deriveRule(u unit) error {
	p := u.p
	// Per-rule-application poll; the empty location is filled in with
	// the stratum and round by the caller's annotate.
	if err := e.bud.Check(""); err != nil {
		return err
	}
	order, reordered := e.x.order[:0], false
	if !e.opts.NoPlan && p.nPos > 1 {
		order, reordered = e.planPositives(p)
		e.plansPlanned++
		if reordered {
			e.plansReordered++
		}
	} else {
		for s := 0; s < p.nPos; s++ {
			order = append(order, s)
		}
	}
	return e.x.run(u, order, reordered)
}

// negation computes the "not derivable" condition for a negated
// literal under the bindings: the negation of the disjunction, over
// every tuple of the relation, of the equalities that would make the
// tuple match, conjoined with the tuple's own condition. It also
// returns the literal's instantiated pattern. An empty or missing
// relation yields true.
func (e *engine) negation(l *litPlan, rel *relstore.Relation, slots []cond.Term) (*cond.Formula, []cond.Term) {
	pattern := make([]cond.Term, len(l.args))
	for c := range l.args {
		if a := &l.args[c]; a.kind == TVar {
			pattern[c] = slots[a.slot]
		} else {
			pattern[c] = a.sym
		}
	}
	if rel == nil {
		return cond.True(), pattern
	}
	// Probe the indexes for the pattern's constant columns instead of
	// scanning: a tuple holding a different constant at a probed column
	// is exactly a possible=false tuple below, contributing nothing to
	// the disjunction — and Or canonicalises, so skipping them yields
	// the identical formula. A pattern with no constant column degrades
	// to a (fallback-counted) full scan inside CandidatesMulti.
	var idxs []int
	if e.opts.NoIndex {
		idxs = rel.All()
	} else {
		var cols []int
		var keys []cond.Term
		for c, pv := range pattern {
			if pv.IsConst() {
				cols = append(cols, c)
				keys = append(keys, pv)
			}
		}
		idxs = rel.CandidatesMulti(cols, keys)
	}
	var matches []*cond.Formula
	for _, idx := range idxs {
		tp := rel.Tuple(idx)
		eqs := make([]*cond.Formula, 0, len(pattern)+1)
		possible := true
		for c, pv := range pattern {
			tv := tp.Values[c]
			if pv.IsConst() && tv.IsConst() {
				if pv != tv {
					possible = false
					break
				}
				continue
			}
			if pv == tv {
				continue
			}
			eqs = append(eqs, cond.Compare(pv, cond.Eq, tv))
		}
		if !possible {
			continue
		}
		eqs = append(eqs, tp.Condition())
		matches = append(matches, cond.And(eqs...))
	}
	return cond.Not(cond.Or(matches...)), pattern
}

// emit receives each completed body match of a rule application: the
// rule plan, the final slot bindings, the accumulated body conditions
// and (when recording provenance) the source tuples; the slots, conds
// and srcs slices are only valid during the call. It instantiates the
// rule head under the bindings (prepareEmit), then dedups, prunes,
// absorbs and inserts the tuple (commit).
func (e *engine) emit(p *rulePlan, slots []cond.Term, conds []*cond.Formula, srcs []Source) error {
	pr, live, err := e.prepareEmit(p, slots, conds, srcs)
	if err != nil {
		return err
	}
	if !live {
		e.stats.Pruned++
		return nil
	}
	return e.commit(pr)
}

// prepared is the instantiated head tuple of an emission with its
// canonical condition, precomputed dedup keys, and (when recording)
// the derivation provenance.
type prepared struct {
	pred    string
	tp      ctable.Tuple
	cond    *cond.Formula
	key     ctable.TupleID
	dataKey [2]uint64     // data-part hash, for absorption grouping
	rule    *compiledRule // the deriving rule, for its strings
	srcs    []Source      // copied, set when recording provenance
}

// prepareEmit builds the head tuple for completed bindings and charges
// its condition's size to the budget. live=false with a nil error
// reports a syntactically false condition, which the caller counts as
// pruned.
func (e *engine) prepareEmit(p *rulePlan, slots []cond.Term, conds []*cond.Formula, srcs []Source) (prepared, bool, error) {
	cr := p.compiledRule
	all := make([]*cond.Formula, len(conds), len(conds)+len(cr.comps)+1)
	copy(all, conds)
	if len(cr.comps) > 0 || cr.hasHeadCond {
		cr.groundFormulas()
	}
	for i := range cr.comps {
		f := cr.ground[i]
		if f == nil {
			f = cr.comps[i].formula(slots)
		}
		all = append(all, f)
	}
	if cr.hasHeadCond {
		f := cr.groundHead
		if f == nil {
			f = cr.headCond.formula(slots)
		}
		all = append(all, f)
	}
	condition := cond.And(all...)
	if condition.IsFalse() {
		return prepared{}, false, nil
	}
	if err := e.bud.CheckCond(condition.NAtoms(), cr.condWhere); err != nil {
		return prepared{}, false, err
	}
	values := make([]cond.Term, len(cr.head))
	for i, o := range cr.head {
		values[i] = o.value(slots)
	}
	tp := ctable.NewTuple(values, condition)
	d := tp.DataHash()
	pr := prepared{
		pred:    cr.pred,
		tp:      tp,
		cond:    condition,
		key:     ctable.TupleID{D1: d[0], D2: d[1], Cond: condition.ID()},
		dataKey: d,
		rule:    cr,
	}
	if e.needSrcs {
		pr.srcs = make([]Source, len(srcs))
		copy(pr.srcs, srcs)
	}
	return pr, true, nil
}

// commit is the deciding half of an emission: dedup, eager prune,
// absorption, budget charge, append to the head relation (above its
// watermark until the round barrier), provenance. Every decision
// depends on the emissions committed before it, so tables follow from
// the emission order alone.
func (e *engine) commit(p prepared) error {
	groups := p.rule.groups
	g := groups[p.dataKey]
	if slices.Contains(g.conds, p.cond) {
		return nil
	}
	// The condition joins the group before the sat check, so a pruned
	// or absorbed repeat is a duplicate too and costs no second check.
	g.conds = append(g.conds, p.cond)
	ok, err := e.admit(&g)
	groups[p.dataKey] = g
	if err != nil || !ok {
		return err
	}
	if err := e.bud.AddTuples(1, p.rule.relWhere); err != nil {
		return err
	}
	if err := p.rule.rel.Append(p.tp); err != nil {
		return err
	}
	e.stats.Derived++
	if e.prov != nil {
		e.recordProv(&p)
	}
	return nil
}

// admit runs the eager prune and absorption for a new condition, the
// last entry of its group g. It reports whether the tuple is to be
// committed and, if so, moves the condition into g's committed prefix.
func (e *engine) admit(g *condGroup) (bool, error) {
	c := g.conds[len(g.conds)-1]
	if !e.opts.NoEagerPrune {
		sat, err := e.timedSat(c)
		if err != nil {
			return false, err
		}
		if !sat {
			e.stats.Pruned++
			return false, nil
		}
	}
	if !e.opts.NoAbsorb && g.committed > 0 {
		implied, err := e.absorbed(c, g)
		if err != nil {
			return false, err
		}
		if implied {
			e.stats.Absorbed++
			return false, nil
		}
	}
	if g.cover != nil {
		start := time.Now()
		err := g.cover.Add(c)
		e.stats.SolverTime += time.Since(start)
		if err != nil {
			return false, err
		}
	}
	g.commitLast()
	return true, nil
}

// condGroup is every condition seen for one data part of a derived
// relation: the committed ones first (conds[:committed], the operands
// of absorption), then those pruned or absorbed, kept so a repeat is
// dropped as a duplicate before it reaches the solver. cover is the
// union of the committed conditions' world tables (solver.Cover),
// built at the group's first semantic absorption probe and extended by
// every later commit; nil before that probe.
type condGroup struct {
	conds     []*cond.Formula
	committed int
	cover     *solver.Cover
}

// commitLast moves the group's last condition into the committed
// prefix.
func (g *condGroup) commitLast() {
	last := len(g.conds) - 1
	g.conds[g.committed], g.conds[last] = g.conds[last], g.conds[g.committed]
	g.committed++
}

// groupTable is a derived relation's dedup and absorption state: its
// condition groups keyed by the 128-bit data-part hash (collision odds
// at 10^7 tuples are ~10^-25), so no key string is ever built. The
// rules deriving the relation share one table; commit is its only
// writer.
type groupTable map[[2]uint64]condGroup

// seedGroups builds a group table holding rel's rows as committed
// conditions (an empty table for a nil rel).
func seedGroups(rel *relstore.Relation) groupTable {
	if rel == nil {
		return groupTable{}
	}
	// One group per row at most: sizing the table up front spares the
	// rehashes of growing it row by row.
	t := make(groupTable, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		t.seed(rel.Tuple(i))
	}
	return t
}

// seed records tp's condition as committed for its data part. It
// reports false when the group already holds it.
func (t groupTable) seed(tp ctable.Tuple) bool {
	d, c := tp.DataHash(), tp.Condition()
	g := t[d]
	if slices.Contains(g.conds, c) {
		return false
	}
	g.conds = append(g.conds, c)
	g.commitLast()
	t[d] = g
	return true
}

// Source is one body fact a derivation consumed: a positive match or a
// negated literal (whose "match" is the absence condition).
type Source struct {
	Pred    string
	Tuple   ctable.Tuple
	Negated bool
}

// recordProv stores the provenance edge of a just-committed tuple.
// Called only from commit, so the first derivation recorded for a
// tuple is the one that inserted it.
func (e *engine) recordProv(p *prepared) {
	refs := make([]prov.SourceRef, len(p.srcs))
	for i, s := range p.srcs {
		refs[i] = prov.SourceRef{Pred: s.Pred, Key: s.Tuple.Identity(), Negated: s.Negated}
		if s.Negated {
			// Negated parents exist in no relation; keep the pattern
			// tuple so explanations can render them.
			refs[i].Tuple = s.Tuple
		}
	}
	e.prov.Record(p.pred, p.key, e.prov.InternRule(p.rule.ruleStr), e.curStratum, e.curRound, refs)
}

// absorbed decides whether condition, the last entry of g, is implied
// by the disjunction of g's committed conditions. A syntactic fast path
// answers for free when some committed condition is literally true,
// identical to condition, or one of condition's own conjuncts
// (condition = c ∧ rest ⇒ c ⇒ the disjunction). The rest are semantic
// probes, counted in AbsorbProbes: g's cover decides them as a subset
// test (AbsorbSetHits), and only what it leaves undecided pays a solver
// Implies.
func (e *engine) absorbed(condition *cond.Formula, g *condGroup) (bool, error) {
	existing := g.conds[:g.committed]
	// A non-conjunction's only conjunct is itself.
	var conj []*cond.Formula
	if condition.Kind == cond.FAnd {
		conj = condition.Sub
	}
	for _, c := range existing {
		if c.IsTrue() || c == condition || slices.Contains(conj, c) {
			return true, nil
		}
	}
	e.stats.AbsorbProbes++
	start := time.Now()
	if g.cover == nil {
		g.cover = e.sol.NewCover()
		for _, c := range existing {
			if err := g.cover.Add(c); err != nil {
				return false, err
			}
		}
	}
	covered, decided, err := g.cover.Covers(condition)
	e.stats.SolverTime += time.Since(start)
	if err != nil {
		return false, err
	}
	if decided {
		e.stats.AbsorbSetHits++
		return covered, nil
	}
	return e.timedImplies(condition, cond.Or(existing...))
}

// finalPrune removes contradictory tuples from the derived relations
// (used when eager pruning is off).
func (e *engine) finalPrune() error {
	for _, pred := range e.derivedOrder {
		rel := e.store.Rel(pred)
		if rel == nil {
			continue
		}
		kept := relstore.NewRelation(pred, e.arity[pred])
		for _, idx := range rel.All() {
			tp := rel.Tuple(idx)
			sat, err := e.timedSat(tp.Condition())
			if err != nil {
				return err
			}
			if !sat {
				e.stats.Pruned++
				continue
			}
			if err := kept.Insert(tp); err != nil {
				return err
			}
		}
		e.store.Replace(pred, kept)
	}
	return nil
}

// result assembles the result database (see Result): a fresh Table
// per input table, sharing its tuples, and one per relation the run
// wrote, sharing the store's.
func (e *engine) result() *Result {
	out := ctable.NewDatabase()
	maps.Copy(out.Doms, e.db.Doms)
	for name, t := range e.db.Tables {
		n := len(t.Tuples)
		out.Tables[name] = &ctable.Table{Schema: t.Schema, Tuples: t.Tuples[:n:n]}
	}
	for _, pred := range append(append([]string{}, e.extraExport...), e.derivedOrder...) {
		rel := e.store.Rel(pred)
		if rel == nil {
			continue
		}
		var attrs []string
		if t := e.db.Table(pred); t != nil {
			attrs = t.Schema.Attrs
		}
		out.AddTable(rel.Table(attrs))
	}
	return &Result{DB: out, Stats: e.stats}
}

// Stratify orders the program's IDB predicates for evaluation: it
// computes the strongly connected components of the positive/negative
// dependency graph and returns them in topological order (dependencies
// first), so that each returned group is exactly one recursion clique.
// Negation inside a component (negation through recursion) is
// rejected. Finer grouping than classic negation-layering means
// non-recursive rules never ride a fixpoint loop they do not need.
func Stratify(p *Program) ([][]string, error) {
	idb := p.IDB()
	type edge struct {
		to  string
		neg bool
	}
	// Edges point dependency → dependent (body pred → head pred).
	adj := map[string][]edge{}
	var preds []string
	seen := map[string]bool{}
	for _, r := range p.Rules {
		if !seen[r.Head.Pred] {
			seen[r.Head.Pred] = true
			preds = append(preds, r.Head.Pred)
		}
	}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if idb[a.Pred] {
				adj[a.Pred] = append(adj[a.Pred], edge{to: r.Head.Pred, neg: a.Neg})
			}
		}
	}

	// Tarjan's SCC over the predicate graph.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	nComp := 0
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.to
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, v := range preds {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}

	// Negation must cross components.
	for from, es := range adj {
		for _, e := range es {
			if e.neg && comp[from] == comp[e.to] {
				return nil, fmt.Errorf("faurelog: program is not stratifiable (negation through recursion between %s and %s)", from, e.to)
			}
		}
	}

	// Tarjan emits components in reverse topological order of the
	// condensation for edges dependency→dependent; a component's
	// dependencies therefore have LOWER component numbers... they do
	// not in general, so order explicitly: Kahn over the condensation.
	depCount := make([]int, nComp)
	compAdj := make([][]int, nComp)
	edgeSeen := map[[2]int]bool{}
	for from, es := range adj {
		for _, e := range es {
			a, b := comp[from], comp[e.to]
			if a == b || edgeSeen[[2]int{a, b}] {
				continue
			}
			edgeSeen[[2]int{a, b}] = true
			compAdj[a] = append(compAdj[a], b)
			depCount[b]++
		}
	}
	members := make([][]string, nComp)
	for _, v := range preds {
		c := comp[v]
		members[c] = append(members[c], v)
	}
	var queue []int
	for c := 0; c < nComp; c++ {
		if depCount[c] == 0 {
			queue = append(queue, c)
		}
	}
	var strata [][]string
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		strata = append(strata, members[c])
		for _, d := range compAdj[c] {
			depCount[d]--
			if depCount[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(strata) != nComp {
		return nil, fmt.Errorf("faurelog: internal error: condensation ordering incomplete")
	}
	return strata, nil
}
