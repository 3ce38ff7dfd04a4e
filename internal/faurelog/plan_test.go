package faurelog

import (
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/prov"
)

// planFixture parses a program and database and returns an engine whose
// store reflects the database, for driving the planner directly.
func planFixture(t *testing.T, progSrc, dbSrc string) *engine {
	t.Helper()
	prog, err := Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(dbSrc)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	e, err := newEngine(prog, db, Options{})
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	return e
}

func TestPlanReordersSelectiveFirst(t *testing.T) {
	// big has 6 tuples, sel has 1: with nothing bound the greedy pick is
	// the smaller relation, then big joins on the variable sel bound.
	e := planFixture(t, `h(x, z) :- big(x, y), sel(y, z).`, `
		big(1, 1). big(2, 1). big(3, 2). big(4, 2). big(5, 3). big(6, 3).
		sel(2, 9).
	`)
	order, changed := e.planPositives(e.rules[0].plan(-1))
	if !changed || len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("order = %v (changed %v), want [1 0]", order, changed)
	}
}

func TestPlanConstBoundColumnWins(t *testing.T) {
	// Equal sizes, but b's first column is probed with a constant and
	// every value there is distinct, so b's estimate is ~1 tuple.
	e := planFixture(t, `h(x) :- a(x, y), b(5, y).`, `
		a(1, 1). a(2, 1). a(3, 2). a(4, 2).
		b(5, 1). b(6, 1). b(7, 2). b(8, 2).
	`)
	order, changed := e.planPositives(e.rules[0].plan(-1))
	if !changed || order[0] != 1 {
		t.Errorf("order = %v (changed %v), want b first", order, changed)
	}
}

func TestPlanDeltaPinned(t *testing.T) {
	// Slot 0 is the fed delta literal: it must stay first even though
	// hub is far cheaper.
	e := planFixture(t, `tri(x, z) :- fat(x, y), fat(y, z), hub(y).`, `
		fat(1, 2). fat(1, 3). fat(2, 4). fat(2, 5). fat(3, 6). fat(3, 7).
		hub(2).
	`)
	order, changed := e.planPositives(e.rules[0].plan(0))
	if order[0] != 0 {
		t.Fatalf("order = %v, delta slot must stay pinned first", order)
	}
	// With x,y bound by the delta, hub(y) (1 tuple) beats fat(y,z).
	if !changed || order[1] != 2 {
		t.Errorf("order = %v (changed %v), want hub before the second fat", order, changed)
	}
}

func TestPlanTiesKeepWrittenOrder(t *testing.T) {
	e := planFixture(t, `h(x) :- a(x), b(x).`, `
		a(1). a(2).
		b(1). b(2).
	`)
	order, changed := e.planPositives(e.rules[0].plan(-1))
	if changed || order[0] != 0 || order[1] != 1 {
		t.Errorf("order = %v (changed %v), equal costs must keep written order", order, changed)
	}
}

// planParity evaluates the program with the planner on and off and
// requires identical dumps.
func planParity(t *testing.T, progSrc, dbSrc string) {
	t.Helper()
	prog, err := Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(dbSrc)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	run := func(noPlan bool) string {
		res, err := Eval(prog, db, Options{NoPlan: noPlan})
		if err != nil {
			t.Fatalf("Eval(noPlan=%v): %v", noPlan, err)
		}
		return dumpResult(res)
	}
	if base, got := run(true), run(false); got != base {
		t.Errorf("planner changed results\n-- no-plan --\n%s-- planned --\n%s", base, got)
	}
}

// A three-way join over relations mixing constants and c-variables:
// the planner reorders (src is smallest), and the replay keys must
// reproduce the constants-then-cvars candidate enumeration.
func TestPlannedParityMultiJoinCVars(t *testing.T) {
	planParity(t, `h(y, w) :- mix(x, y), src(x), ext(y, w).`, `
		var $a in {1, 2, 3}.
		var $b in {1, 2, 3}.
		mix(1, 10). mix($a, 20). mix(2, 30). mix(1, 40). mix($b, 50). mix(3, 60).
		src(1). src(2). src($a).
		ext(10, 7). ext(20, 7). ext(30, 8). ext(40, 8). ext(50, 9). ext(60, 9).
	`)
}

// Recursive rule with a pinned delta plus a cheap filter literal the
// planner hoists above the second recursive literal.
func TestPlannedParityRecursiveDelta(t *testing.T) {
	planParity(t, `
		path(x, y) :- edge(x, y).
		path(x, z) :- path(x, y), path(y, z), hub(y).
	`, `
		var $e in {2, 3}.
		edge(1, 2). edge(2, 3). edge(3, 4). edge($e, 5). edge(4, 6).
		hub(2). hub(3). hub(4). hub(5).
	`)
}

// Negated literal rides the planned rule: its condition is rebuilt at
// replay with the canonical bindings, against a relation holding
// c-variable tuples.
func TestPlannedParityNegation(t *testing.T) {
	planParity(t, `q(x, y) :- node(x), link(x, y), not bad(y).`, `
		var $u in {20, 30}.
		node(1). node(2).
		link(1, 10). link(1, 20). link(2, 30). link(2, 40). link(1, 30).
		bad(20). bad($u).
	`)
}

// The ablation knobs must not break parity: deferred pruning and
// absorption off change which emissions survive, but planner on/off
// must still agree.
func TestPlannedParityAblations(t *testing.T) {
	progSrc := `h(y, w) :- mix(x, y), src(x), ext(y, w).`
	dbSrc := `
		var $a in {1, 2, 3}.
		mix(1, 10). mix($a, 20). mix(2, 30). mix(1, 40).
		src(1). src(2). src($a).
		ext(10, 7). ext(20, 7). ext(30, 8). ext(40, 8).
	`
	prog, err := Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(dbSrc)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	for _, opts := range []Options{
		{NoEagerPrune: true},
		{NoAbsorb: true},
		{NoIndex: true},
		{NoEagerPrune: true, NoAbsorb: true},
	} {
		off := opts
		off.NoPlan = true
		a, err := Eval(prog, db, off)
		if err != nil {
			t.Fatalf("Eval no-plan %+v: %v", opts, err)
		}
		b, err := Eval(prog, db, opts)
		if err != nil {
			t.Fatalf("Eval planned %+v: %v", opts, err)
		}
		if dumpResult(a) != dumpResult(b) {
			t.Errorf("parity broken under %+v\n-- no-plan --\n%s-- planned --\n%s", opts, dumpResult(a), dumpResult(b))
		}
	}
}

// Incremental propagation plans its delta units like scratch rounds.
func TestPlannedParityIncremental(t *testing.T) {
	progSrc := `
		path(x, y) :- edge(x, y).
		path(x, z) :- path(x, y), path(y, z), hub(y).
	`
	prog, err := Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(`
		edge(1, 2). edge(2, 3).
		hub(2). hub(3). hub(4).
	`)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	added := map[string][]ctable.Tuple{
		"edge": {
			ctable.NewTuple([]cond.Term{cond.Int(3), cond.Int(4)}, nil),
			ctable.NewTuple([]cond.Term{cond.Int(4), cond.Int(5)}, nil),
		},
	}
	run := func(noPlan bool) string {
		base, err := Eval(prog, db, Options{NoPlan: noPlan})
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		inc, err := EvalIncrement(prog, base.DB, added, Options{NoPlan: noPlan})
		if err != nil {
			t.Fatalf("EvalIncrement: %v", err)
		}
		return dumpResult(inc)
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("incremental parity broken\n-- no-plan --\n%s-- planned --\n%s", a, b)
	}
}

// Planner decisions and store counters surface in Stats.
func TestPlanStats(t *testing.T) {
	prog, err := Parse(`h(y, w) :- mix(x, y), src(x), ext(y, w).`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(`
		mix(1, 10). mix(2, 20). mix(2, 30). mix(1, 40).
		src(1). src(2).
		ext(10, 7). ext(20, 7). ext(30, 8). ext(40, 8).
	`)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	s := res.Stats
	if s.PlansPlanned == 0 || s.PlansReordered == 0 {
		t.Errorf("planner counters empty: %+v", s)
	}
	if s.Probes+s.MultiProbes == 0 {
		t.Errorf("no store probes recorded: %+v", s)
	}
	if r := s.ProbeHitRatio(); r <= 0 || r > 1 {
		t.Errorf("ProbeHitRatio = %v", r)
	}
	off, err := Eval(prog, db, Options{NoPlan: true})
	if err != nil {
		t.Fatalf("Eval no-plan: %v", err)
	}
	if off.Stats.PlansReordered != 0 {
		t.Errorf("no-plan run claims reordered plans: %+v", off.Stats)
	}
}

// Provenance must be identical too: the replay rebuilds sources in
// written order, so every q tuple's recorded rule and parents match
// with the planner on and off.
func TestPlannedParityTrace(t *testing.T) {
	progSrc := `q(x, y) :- node(x), link(x, y), not bad(y).`
	dbSrc := `
		var $u in {20, 30}.
		node(1). node(2).
		link(1, 10). link(1, 20). link(2, 30). link(2, 40).
		bad(20). bad($u).
	`
	prog, err := Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(dbSrc)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	run := func(noPlan bool) string {
		rec := prov.NewRecorder(0)
		res, err := Eval(prog, db, Options{NoPlan: noPlan, Prov: rec})
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		x := prov.NewExplainer(rec, res.DB)
		for _, tp := range res.DB.Tables["q"].Tuples {
			if x.Explain("q", tp).Rule == "" {
				t.Fatalf("no derivation for %v", tp)
			}
		}
		return x.Dump()
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("provenance differs:\n no-plan:\n%s\n planned:\n%s", a, b)
	}
}
