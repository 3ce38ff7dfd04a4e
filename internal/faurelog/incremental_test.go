package faurelog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/solver"
)

func reachProg() *Program {
	return MustParse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`)
}

func linkTuple(a, b int, c *cond.Formula) ctable.Tuple {
	return ctable.NewTuple([]cond.Term{cond.Int(int64(a)), cond.Int(int64(b))}, c)
}

// TestIncrementBasic: adding a bridging link derives exactly the new
// reachability facts.
func TestIncrementBasic(t *testing.T) {
	db, err := ParseDatabase(`
		link(1, 2).
		link(3, 4).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := reachProg()
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.DB.Table("reach").Len() != 2 {
		t.Fatalf("base reach = %d", base.DB.Table("reach").Len())
	}
	inc, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{
		"link": {linkTuple(2, 3, nil)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Now 1→2→3→4: reach gains (2,3), (1,3), (2,4), (1,4), (3,4) stays.
	if inc.DB.Table("reach").Len() != 6 {
		t.Fatalf("incremental reach = %d:\n%v", inc.DB.Table("reach").Len(), inc.DB.Table("reach"))
	}
	// Re-deriving existing facts is a no-op.
	if inc.Stats.Derived != 4 {
		t.Errorf("Derived = %d, want 4 new reach tuples", inc.Stats.Derived)
	}
}

// TestIncrementRejects: negation and derived-predicate insertion.
func TestIncrementRejects(t *testing.T) {
	db, _ := ParseDatabase(`r(A).`)
	neg := MustParse(`q(x) :- r(x), not s(x).`)
	base, err := Eval(MustParse(`q(x) :- r(x).`), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalIncrement(neg, base.DB, nil, Options{}); err == nil {
		t.Errorf("negation should be rejected")
	}
	pos := MustParse(`q(x) :- r(x).`)
	if _, err := EvalIncrement(pos, base.DB, map[string][]ctable.Tuple{
		"q": {ctable.NewTuple([]cond.Term{cond.Str("B")}, nil)},
	}, Options{}); err == nil {
		t.Errorf("insertion into derived predicate should be rejected")
	}
}

// TestIncrementAgainstScratch: on random conditioned graphs and random
// insertions, incremental evaluation is world-equivalent to the
// from-scratch result: the same satisfiable data parts with equivalent
// combined conditions. That is EvalIncrement's contract; its data parts
// need not equal Eval's (see TestIncrementWorldEquivalent), and these
// graphs hold no c-variable that could make them differ.
func TestIncrementAgainstScratch(t *testing.T) {
	prog := reachProg()
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		mkCond := func() *cond.Formula {
			switch rnd.Intn(3) {
			case 0:
				return cond.True()
			default:
				v := []string{"u", "v"}[rnd.Intn(2)]
				return cond.Compare(cond.CVar(v), cond.Eq, cond.Int(int64(rnd.Intn(2))))
			}
		}
		n := 5
		base := ctable.NewDatabase()
		base.DeclareVar("u", solver.BoolDomain())
		base.DeclareVar("v", solver.BoolDomain())
		links := ctable.NewTable("link", "a", "b")
		for i := 0; i < 5+rnd.Intn(4); i++ {
			links.MustInsert(mkCond(), cond.Int(int64(1+rnd.Intn(n))), cond.Int(int64(1+rnd.Intn(n))))
		}
		base.AddTable(links)

		baseRes, err := Eval(prog, base, Options{})
		if err != nil {
			t.Fatal(err)
		}

		var adds []ctable.Tuple
		for i := 0; i < 1+rnd.Intn(3); i++ {
			adds = append(adds, linkTuple(1+rnd.Intn(n), 1+rnd.Intn(n), mkCond()))
		}
		incRes, err := EvalIncrement(prog, baseRes.DB, map[string][]ctable.Tuple{"link": adds}, Options{})
		if err != nil {
			t.Fatal(err)
		}

		// From scratch on the union.
		full := base.Clone()
		for _, tp := range adds {
			if err := full.Table("link").Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		fullRes, err := Eval(prog, full, Options{})
		if err != nil {
			t.Fatal(err)
		}

		s := solver.New(base.Doms)
		sum := func(tbl *ctable.Table) map[string]*cond.Formula {
			m := map[string]*cond.Formula{}
			for _, tp := range tbl.Tuples {
				k := tp.DataKey()
				c := m[k]
				if c == nil {
					c = cond.False()
				}
				m[k] = cond.Or(c, tp.Condition())
			}
			return m
		}
		a := sum(incRes.DB.Table("reach"))
		b := sum(fullRes.DB.Table("reach"))
		for k, ca := range a {
			cb, ok := b[k]
			if !ok {
				cb = cond.False()
			}
			eq, err := s.Equivalent(ca, cb)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Errorf("seed %d: tuple %s: incremental %v vs scratch %v", seed, k, ca, cb)
				return false
			}
		}
		for k, cb := range b {
			if _, ok := a[k]; ok {
				continue
			}
			sat, _ := s.Satisfiable(cb)
			if sat {
				t.Errorf("seed %d: scratch-only satisfiable tuple %s", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementMultiStratumChain: new facts propagate through SCC
// strata boundaries (reach feeds a downstream consumer).
func TestIncrementMultiStratumChain(t *testing.T) {
	prog := MustParse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
		fromone(b) :- reach(1, b).
	`)
	db, err := ParseDatabase(`link(1, 2).`)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.DB.Table("fromone").Len() != 1 {
		t.Fatalf("base fromone = %d", base.DB.Table("fromone").Len())
	}
	inc, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{
		"link": {linkTuple(2, 3, nil)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tp := range inc.DB.Table("fromone").Tuples {
		got[tp.Values[0].String()] = true
	}
	if !got["2"] || !got["3"] {
		t.Errorf("fromone should gain 3: %v", got)
	}
}

// TestIncrementNoop: inserting an already-present fact derives
// nothing.
func TestIncrementNoop(t *testing.T) {
	db, err := ParseDatabase(`link(1, 2). link(2, 3).`)
	if err != nil {
		t.Fatal(err)
	}
	prog := reachProg()
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{
		"link": {linkTuple(1, 2, nil)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.Derived != 0 {
		t.Errorf("duplicate insert should derive nothing, got %d", inc.Stats.Derived)
	}
	_ = fmt.Sprintf("%v", inc.DB)
}

// TestIncrementSequential: successive increments accumulate — the
// returned database carries the inserted EDB facts, so later additions
// can join against earlier ones (regression: the result used to
// export only derived relations).
func TestIncrementSequential(t *testing.T) {
	db, err := ParseDatabase(`link(1, 2).`)
	if err != nil {
		t.Fatal(err)
	}
	prog := reachProg()
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		res, err = EvalIncrement(prog, res.DB, map[string][]ctable.Tuple{
			"link": {linkTuple(i, i+1, nil)},
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Chain 1..5: closure has 10 pairs; link table has 4 rows.
	if got := res.DB.Table("reach").Len(); got != 10 {
		t.Errorf("reach = %d, want 10:\n%v", got, res.DB.Table("reach"))
	}
	if got := res.DB.Table("link").Len(); got != 4 {
		t.Errorf("link = %d, want 4", got)
	}
}

// TestIncrementHonorsCancellation: a canceled context aborts the
// increment at its next checkpoint with a Truncated partial result —
// exactly the contract Eval has — and the previous database is left
// untouched. This is what lets a server propagate a client disconnect
// into an in-flight incremental apply.
func TestIncrementHonorsCancellation(t *testing.T) {
	db, err := ParseDatabase(`link(1, 2).`)
	if err != nil {
		t.Fatal(err)
	}
	prog := reachProg()
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevDump := FormatDatabase(base.DB)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // disconnect before the increment starts

	// A batch far larger than the seed-loop poll interval, so the
	// cancellation must fire inside the seeding phase.
	var adds []ctable.Tuple
	for i := 0; i < 4*seedCheckEvery; i++ {
		adds = append(adds, linkTuple(2+i, 3+i, nil))
	}
	res, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{"link": adds}, Options{Context: ctx})
	if err != nil {
		t.Fatalf("cancellation must degrade, not error: %v", err)
	}
	if res.Truncated == nil {
		t.Fatal("canceled increment returned an untruncated result")
	}
	if res.Truncated.Kind != budget.Canceled {
		t.Errorf("Truncated.Kind = %s, want canceled", res.Truncated.Kind)
	}
	// prev is untouched: the aborted increment's partial work lives in
	// the engine's private store only.
	if FormatDatabase(base.DB) != prevDump {
		t.Error("aborted increment mutated the previous database")
	}
}

// TestIncrementCommitFaultDegrades: the faurelog.increment.commit
// point converts a converged increment into a failure without
// corrupting the caller's database — the hook crash-recovery tests
// hang off.
func TestIncrementCommitFaultDegrades(t *testing.T) {
	defer faultinject.Disarm()
	db, err := ParseDatabase(`link(1, 2).`)
	if err != nil {
		t.Fatal(err)
	}
	prog := reachProg()
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevDump := FormatDatabase(base.DB)
	faultinject.Arm(faultinject.FaurelogIncrementCommit, 1, errors.New("injected commit crash"))
	_, err = EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{
		"link": {linkTuple(2, 3, nil)},
	}, Options{})
	if err == nil {
		t.Fatal("armed commit point did not fail the increment")
	}
	if FormatDatabase(base.DB) != prevDump {
		t.Error("failed increment mutated the previous database")
	}
	faultinject.Disarm()
	// The path is clean again once disarmed.
	if _, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{
		"link": {linkTuple(2, 3, nil)},
	}, Options{}); err != nil {
		t.Fatalf("increment after disarm: %v", err)
	}
}

// TestIncrementalSolverStats: every satisfiability decision is answered
// by exactly one of the exact-key cache, a cached validity, the
// finite-domain fast path or search, so the four decision counters sum
// to SatCalls — for EvalIncrement as for Eval.
func TestIncrementalSolverStats(t *testing.T) {
	db, err := ParseDatabase(`
		var $a in {0, 1}. var $b in {0, 1}. var $c in {0, 1}.
		link(1, 2)[$a = 1].
		link(2, 3)[$b = 1].
		link(3, 4)[$c = 1].
	`)
	if err != nil {
		t.Fatal(err)
	}
	ceq := func(v string, n int64) *cond.Formula { return cond.Compare(cond.CVar(v), cond.Eq, cond.Int(n)) }
	added := map[string][]ctable.Tuple{"link": {linkTuple(4, 1, ceq("a", 0))}}
	check := func(what string, s Stats) {
		t.Helper()
		decided := s.SolverCacheHits + s.SolverCertHits + s.SolverFastPathHits + s.SolverSearches
		if s.SatCalls == 0 || decided != s.SatCalls {
			t.Errorf("%s: %d decisions for %d sat calls: %+v", what, decided, s.SatCalls, s)
		}
	}
	full, err := Eval(reachProg(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("Eval", full.Stats)
	inc, err := EvalIncrement(reachProg(), full.DB, added, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("EvalIncrement", inc.Stats)
}

// worldRows renders, per world over vars, the rows of db's pred that
// hold in that world, sorted.
func worldRows(t *testing.T, db *ctable.Database, pred string, vars []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := db.EachWorld(vars, func(w ctable.World) bool {
		var rows []string
		for _, vals := range w.Tables[pred] {
			rows = append(rows, fmt.Sprint(vals))
		}
		sort.Strings(rows)
		out[fmt.Sprint(w.Assign)] = strings.Join(rows, " ")
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIncrementWorldEquivalent pins EvalIncrement's contract: its result
// agrees with a from-scratch Eval in every world, while its data parts
// may differ. Here a c-variable sits at a join column that reaches the
// head: inserting fwd(P2, 2, $u) derives reach(P2, 2, 4)[$p = P2]
// incrementally, where Eval derives reach($p, 2, 4)[$p = P2].
func TestIncrementWorldEquivalent(t *testing.T) {
	prog := MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	db, err := ParseDatabase(`
		var $p in {P1, P2}.
		var $u in {1, 2, 3}.
		fwd($p, $u, 4)[$p = P2].
		fwd(P1, 1, 2).
		fwd(P2, 3, 1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	added := ctable.NewTuple([]cond.Term{cond.Str("P2"), cond.Int(2), cond.CVar("u")}, nil)
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{"fwd": {added}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := db.Clone()
	if err := full.Table("fwd").Insert(added); err != nil {
		t.Fatal(err)
	}
	scratch, err := Eval(prog, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vars := []string{"p", "u"}
	got, want := worldRows(t, inc.DB, "reach", vars), worldRows(t, scratch.DB, "reach", vars)
	if len(want) != 6 {
		t.Fatalf("%d worlds, want 6", len(want))
	}
	for w, rows := range want {
		if got[w] != rows {
			t.Errorf("world %s: increment reaches %s, from scratch %s", w, got[w], rows)
		}
	}
}
