package faurelog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/prov"
	"faure/internal/solver"
)

// condGraph builds a two-ring topology with conditional cross links:
// enough tuples that the parallel engine actually shards round zero,
// recursion deep enough for several delta rounds, and boolean
// link-state c-variables so pruning and absorption both fire.
func condGraph(t *testing.T, n int) *ctable.Database {
	t.Helper()
	db := ctable.NewDatabase()
	link := ctable.NewTable("link", "src", "dst")
	node := ctable.NewTable("node", "id")
	for i := 0; i < n; i++ {
		node.MustInsert(nil, cond.Int(int64(i)))
		link.MustInsert(nil, cond.Int(int64(i)), cond.Int(int64((i+1)%n)))
		if i%3 == 0 {
			v := fmt.Sprintf("l%d", i)
			db.DeclareVar(v, solver.BoolDomain())
			up := cond.Compare(cond.CVar(v), cond.Eq, cond.Int(1))
			link.MustInsert(up, cond.Int(int64(i)), cond.Int(int64((i+7)%n)))
			// A second conditional edge with the complementary state, so
			// some derivations conjoin l=1 with l=0 and prune.
			down := cond.Compare(cond.CVar(v), cond.Eq, cond.Int(0))
			link.MustInsert(down, cond.Int(int64((i+7)%n)), cond.Int(int64(i)))
		}
	}
	db.AddTable(link)
	db.AddTable(node)
	return db
}

// dumpResult renders every derived table — tuple data, conditions and
// ordering — into one canonical string for bit-for-bit comparison.
func dumpResult(res *Result) string {
	var names []string
	for name := range res.DB.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		tbl := res.DB.Tables[name]
		fmt.Fprintf(&b, "== %s (%s)\n", name, strings.Join(tbl.Schema.Attrs, ","))
		for i, tp := range tbl.Tuples {
			fmt.Fprintf(&b, "%4d %s\n", i, tp.Key())
		}
	}
	return b.String()
}

// deterministicStats is the subset of Stats the merge replays exactly;
// SatCalls and times are speculative/wall-clock and may differ.
func deterministicStats(s Stats) string {
	return fmt.Sprintf("derived=%d pruned=%d absorbed=%d iterations=%d absorbProbes=%d",
		s.Derived, s.Pruned, s.Absorbed, s.Iterations, s.AbsorbProbes)
}

var parallelPrograms = map[string]string{
	"recursive": `
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`,
	"negation": `
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
		isolated(a, b) :- node(a), node(b), not reach(a, b).
	`,
	"comparisons": `
		fwd(a, b) :- link(a, b), a < b.
		reach(a, b) :- fwd(a, b).
		reach(a, c) :- fwd(a, b), reach(b, c).
	`,
}

// TestParallelMatchesSequential is the core determinism guarantee:
// identical result tables — contents, conditions, ordering — and
// identical commit-path statistics at every worker count, across the
// ablation option sets.
func TestParallelMatchesSequential(t *testing.T) {
	// The ablations that keep weaker-than-default tuple sets (no
	// absorption, deferred pruning) blow up combinatorially with the
	// number of conditional links, so they run on a smaller graph.
	big := condGraph(t, 30)
	small := condGraph(t, 12)
	for progName, src := range parallelPrograms {
		prog := MustParse(src)
		for _, base := range []Options{
			{},
			{NoEagerPrune: true},
			{NoAbsorb: true},
			{NoSolverCache: true},
			{Prov: prov.NewRecorder(0)},
		} {
			db := small
			if base == (Options{}) {
				db = big
			}
			seqOpts := base
			seqOpts.Workers = 1
			seq, err := Eval(prog, db, seqOpts)
			if err != nil {
				t.Fatalf("%s seq: %v", progName, err)
			}
			want := dumpResult(seq)
			wantStats := deterministicStats(seq.Stats)
			for _, workers := range []int{2, 4, 8} {
				parOpts := base
				parOpts.Workers = workers
				par, err := Eval(prog, db, parOpts)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", progName, workers, err)
				}
				if got := dumpResult(par); got != want {
					t.Fatalf("%s opts=%+v workers=%d: tables diverge from sequential\nseq:\n%s\npar:\n%s",
						progName, base, workers, want, got)
				}
				if got := deterministicStats(par.Stats); got != wantStats {
					t.Errorf("%s opts=%+v workers=%d: stats %s, want %s", progName, base, workers, got, wantStats)
				}
			}
		}
	}
}

// TestParallelIncrementalMatches covers the incremental propagation
// path (EvalIncrement routes through the same round runner).
func TestParallelIncrementalMatches(t *testing.T) {
	db := condGraph(t, 24)
	prog := MustParse(parallelPrograms["recursive"])
	added := map[string][]ctable.Tuple{"link": {
		ctable.NewTuple([]cond.Term{cond.Int(2), cond.Int(17)}, nil),
		ctable.NewTuple([]cond.Term{cond.Int(11), cond.Int(4)}, nil),
	}}
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := EvalIncrement(prog, base.DB, added, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvalIncrement(prog, base.DB, added, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dumpResult(seq) != dumpResult(par) {
		t.Fatalf("incremental tables diverge:\nseq:\n%s\npar:\n%s", dumpResult(seq), dumpResult(par))
	}
	if deterministicStats(seq.Stats) != deterministicStats(par.Stats) {
		t.Errorf("incremental stats diverge: %s vs %s",
			deterministicStats(seq.Stats), deterministicStats(par.Stats))
	}
}

// TestParallelBudgetTripDeterministic injects a failure at a fixed
// fixpoint checkpoint — the same governance point at every worker
// count, since checkpoints run once per round on the coordinator — and
// asserts both engines truncate to the identical partial result.
func TestParallelBudgetTripDeterministic(t *testing.T) {
	db := condGraph(t, 30)
	prog := MustParse(parallelPrograms["recursive"])
	trip := &budget.Exceeded{Kind: budget.Tuples, Limit: 99, Where: "injected"}

	runWith := func(workers int) *Result {
		t.Helper()
		faultinject.Arm(faultinject.FaurelogIteration, 3, trip)
		defer faultinject.Disarm()
		res, err := Eval(prog, db, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Truncated == nil {
			t.Fatalf("workers=%d: injected trip did not truncate", workers)
		}
		return res
	}
	seq := runWith(1)
	for _, workers := range []int{2, 8} {
		par := runWith(workers)
		if dumpResult(seq) != dumpResult(par) {
			t.Fatalf("truncated tables diverge at workers=%d:\nseq:\n%s\npar:\n%s",
				workers, dumpResult(seq), dumpResult(par))
		}
	}
}

// TestParallelWorkerPhaseTripRollsBackRound: a budget that exhausts
// mid-round in the worker phase must roll the round back — the result
// is truncated and every relation is a prefix of the untruncated run's
// (round boundaries commit atomically).
func TestParallelWorkerPhaseTripRollsBackRound(t *testing.T) {
	db := condGraph(t, 30)
	prog := MustParse(parallelPrograms["recursive"])
	full, err := Eval(prog, db, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bud := budget.New(nil, budget.Limits{SolverSteps: 2000})
	res, err := Eval(prog, db, Options{Workers: 4, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == nil {
		t.Skip("budget did not trip at this limit; nothing to assert")
	}
	fullTbl := full.DB.Table("reach")
	gotTbl := res.DB.Table("reach")
	if gotTbl == nil {
		return // rolled back before any reach tuple: a valid empty under-approximation
	}
	if gotTbl.Len() > fullTbl.Len() {
		t.Fatalf("truncated run has more tuples (%d) than full run (%d)", gotTbl.Len(), fullTbl.Len())
	}
	for i, tp := range gotTbl.Tuples {
		if tp.Key() != fullTbl.Tuples[i].Key() {
			t.Fatalf("truncated run is not a prefix at %d: %s vs %s", i, tp.Key(), fullTbl.Tuples[i].Key())
		}
	}
}

// TestParallelContextCancel: cancellation during a parallel run
// surfaces as a truncated result, never an error or a hang.
func TestParallelContextCancel(t *testing.T) {
	db := condGraph(t, 30)
	prog := MustParse(parallelPrograms["recursive"])
	trip := &budget.Exceeded{Kind: budget.Canceled, Where: "injected"}
	faultinject.Arm(faultinject.FaurelogIteration, 2, trip)
	defer faultinject.Disarm()
	res, err := Eval(prog, db, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == nil || res.Truncated.Kind != budget.Canceled {
		t.Fatalf("Truncated = %v, want canceled", res.Truncated)
	}
}

// TestWorkerCountNormalisation: Workers <= 1 must take the sequential
// path (no pool allocated).
func TestWorkerCountNormalisation(t *testing.T) {
	for _, w := range []int{-3, 0, 1} {
		e, err := newEngine(MustParse(`p(a) :- q(a).`), ctable.NewDatabase(), Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(e.wrk) != 0 {
			t.Fatalf("Workers=%d allocated %d workers", w, len(e.wrk))
		}
	}
	e, err := newEngine(MustParse(`p(a) :- q(a).`), ctable.NewDatabase(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.wrk) != 3 {
		t.Fatalf("Workers=3 allocated %d workers", len(e.wrk))
	}
}

// TestAbsorbFastPath: a re-derivation whose condition literally
// contains an already-recorded condition as a conjunct must absorb
// without a solver probe.
func TestAbsorbFastPath(t *testing.T) {
	db, err := ParseDatabase(`
		var $l in {0, 1}.
		edge(1, 2).
		gate(1, 2)[$l = 1].
	`)
	if err != nil {
		t.Fatal(err)
	}
	// The first rule derives conn(1,2) under ($l = 1) and records it.
	// The second re-derives it with an extra head conjunct: its
	// condition ($l = 1) ∧ ($m = 1) contains the recorded ($l = 1) as a
	// top-level conjunct, so the syntactic fast path absorbs it without
	// consulting the solver.
	prog := MustParse(`
		conn(a, b) :- gate(a, b).
		conn(a, b)[$m = 1] :- edge(a, b), gate(a, b).
	`)
	db.DeclareVar("m", solver.BoolDomain())
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Absorbed != 1 {
		t.Fatalf("Absorbed = %d, want 1 (conn re-derivation)", res.Stats.Absorbed)
	}
	if res.Stats.AbsorbProbes != 0 {
		t.Fatalf("AbsorbProbes = %d, want 0: the conjunct fast path should bypass the solver", res.Stats.AbsorbProbes)
	}
}

// TestAbsorbSemanticProbeStillCounts: when the fast path cannot
// answer, the semantic probe runs and is counted.
func TestAbsorbSemanticProbeStillCounts(t *testing.T) {
	db, err := ParseDatabase(`
		var $l in {0, 1}.
		a(1)[$l = 0 || $l = 1].
		b(1)[$l = 0].
	`)
	if err != nil {
		t.Fatal(err)
	}
	// q(1) first derives under ($l=0 ∨ $l=1); the b-rule re-derives it
	// under ($l=0), which is semantically implied but shares no
	// syntactic conjunct with the recorded disjunction.
	prog := MustParse(`
		q(x) :- a(x).
		q(x) :- b(x).
	`)
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Absorbed != 1 {
		t.Fatalf("Absorbed = %d, want 1", res.Stats.Absorbed)
	}
	if res.Stats.AbsorbProbes != 1 {
		t.Fatalf("AbsorbProbes = %d, want 1 (semantic probe)", res.Stats.AbsorbProbes)
	}
}

// TestAbsorbDedupBeforeSat: dedup runs before the eager sat check, and
// a pruned or absorbed condition stays in its group, so an emission
// repeating an earlier pruned or absorbed (data, condition) pair costs
// no second SatCalls and is counted once. The repeats arrive in later
// rounds than the first emission, so at 8 workers it is the workers'
// pre-filter, reading the frozen group table, that drops them.
func TestAbsorbDedupBeforeSat(t *testing.T) {
	// r, s, p and q are one recursive component. p(1) is only ever
	// derived under $x = 0 ∧ $x = 1 (unsat for the solver, not
	// syntactically false); q(1) under true, then under $x = 0, which
	// the committed true absorbs. The r- and s-fed rules repeat both
	// pairs one and two rounds later.
	prog := MustParse(`
		r(v) :- c(v).
		r(v) :- p(v).
		r(v) :- q(v).
		s(v) :- r(v).
		p(v) :- a(v), b(v).
		p(v) :- r(v), a(v), b(v).
		p(v) :- s(v), a(v), b(v).
		q(v) :- c(v).
		q(v) :- a(v).
		q(v) :- r(v), a(v).
		q(v) :- s(v), a(v).
	`)
	const facts = `
		var $x in {0, 1}.
		b(1)[$x = 1].
	`
	full, err := ParseDatabase(facts + "a(1)[$x = 0]. c(1).")
	if err != nil {
		t.Fatal(err)
	}
	bOnly, err := ParseDatabase(facts)
	if err != nil {
		t.Fatal(err)
	}
	one := []cond.Term{cond.Int(1)}
	added := map[string][]ctable.Tuple{
		"a": {ctable.NewTuple(one, cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(0)))},
		"c": {ctable.NewTuple(one, nil)},
	}
	// One sat call per distinct pair: r(1), s(1) and q(1) under true,
	// q(1) under $x = 0 and p(1) under the contradiction.
	const wantSat = 5
	for _, workers := range []int{1, 8} {
		opts := Options{Workers: workers}
		res, err := Eval(prog, full, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Over b alone nothing is derived, so the increment adding a(1)
		// and c(1) emits the same pairs, repeats included.
		base, err := Eval(prog, bOnly, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := EvalIncrement(prog, base.DB, added, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]Stats{"Eval": res.Stats, "EvalIncrement": inc.Stats} {
			if st.SatCalls != wantSat || st.Pruned != 1 || st.Absorbed != 1 {
				t.Errorf("%s at %d workers: SatCalls=%d Pruned=%d Absorbed=%d, want %d, 1, 1",
					name, workers, st.SatCalls, st.Pruned, st.Absorbed, wantSat)
			}
		}
	}
}

// sanity: the injected trip must round-trip budget.As so Eval treats
// it as truncation, not an error.
func init() {
	var err error = &budget.Exceeded{Kind: budget.Tuples}
	if _, ok := budget.As(err); !ok {
		panic(errors.New("budget.Exceeded does not satisfy budget.As"))
	}
}
