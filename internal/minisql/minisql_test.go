package minisql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/network"
	"faure/internal/rib"
	"faure/internal/solver"
)

// summarise reduces a table to data-part → OR of conditions, the
// semantic content two backends must agree on.
func summarise(tbl *ctable.Table) map[string]*cond.Formula {
	out := map[string]*cond.Formula{}
	if tbl == nil {
		return out
	}
	for _, tp := range tbl.Tuples {
		k := tp.DataKey()
		c := out[k]
		if c == nil {
			c = cond.False()
		}
		out[k] = cond.Or(c, tp.Condition())
	}
	return out
}

// assertAgree checks that the native and SQL backends derived the same
// satisfiable data parts with equivalent conditions.
func assertAgree(t *testing.T, doms solver.Domains, native, sql *ctable.Table, label string) {
	t.Helper()
	s := solver.New(doms)
	a, b := summarise(native), summarise(sql)
	for k, ca := range a {
		cb, ok := b[k]
		if !ok {
			cb = cond.False()
		}
		eq, err := s.Equivalent(ca, cb)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !eq {
			t.Errorf("%s: tuple %s: native %v vs sql %v", label, k, ca, cb)
		}
	}
	for k, cb := range b {
		if _, ok := a[k]; ok {
			continue
		}
		sat, err := s.Satisfiable(cb)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sat {
			t.Errorf("%s: sql-only satisfiable tuple %s[%v]", label, k, cb)
		}
	}
}

func evalBoth(t *testing.T, progSrc string, db *ctable.Database, pred string) (*ctable.Table, *ctable.Table) {
	t.Helper()
	prog := faurelog.MustParse(progSrc)
	res, err := faurelog.Eval(prog, db, faurelog.Options{})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	sqlDB, _, err := EvalSQL(prog, db, Options{})
	if err != nil {
		t.Fatalf("sql: %v", err)
	}
	return res.DB.Table(pred), sqlDB.Table(pred)
}

func TestSQLAgreesOnTable2(t *testing.T) {
	db, err := faurelog.ParseDatabase(`
		var $x in {ABC, ADEC, ABE}.
		var $y.
		pi('1.2.3.4', $x)[$x = ABC || $x = ADEC].
		pi($y, ABE)[$y != '1.2.3.4'].
		pi('1.2.3.6', ADEC).
		c(ABC, 3). c(ADEC, 4). c(ABE, 3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	native, sql := evalBoth(t, `q2(cost) :- pi('1.2.3.4', path), c(path, cost).`, db, "q2")
	assertAgree(t, db.Doms, native, sql, "q2")
}

func TestSQLAgreesOnFigure1(t *testing.T) {
	db := network.Figure1().ForwardingTable("f0")
	src := `
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`
	native, sql := evalBoth(t, src, db, "reach")
	assertAgree(t, db.Doms, native, sql, "figure1-reach")
}

func TestSQLAgreesOnListing2Pipeline(t *testing.T) {
	r := rib.Generate(rib.Config{Prefixes: 20, Seed: 4})
	db := r.ForwardingDatabase()
	reachSrc := `
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`
	prog := faurelog.MustParse(reachSrc)
	nat, err := faurelog.Eval(prog, db, faurelog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlDB, _, err := EvalSQL(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgree(t, db.Doms, nat.DB.Table("reach"), sqlDB.Table("reach"), "rib-reach")

	// Nested q6 over each backend's own output.
	q6 := faurelog.MustParse(`t1(f, a, b) :- reach(f, a, b), $x+$y+$z = 1.`)
	nat6, err := faurelog.Eval(q6, nat.DB, faurelog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sql6, _, err := EvalSQL(q6, sqlDB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgree(t, db.Doms, nat6.DB.Table("t1"), sql6.Table("t1"), "rib-q6")
}

func TestSQLComparisonsAndHeadCond(t *testing.T) {
	db, err := faurelog.ParseDatabase(`
		var $x in {0, 1}.
		var $y in {0, 1}.
		r(A, 1). r(B, 2). r(C, 3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	native, sql := evalBoth(t, `q(v) [$x = 1 || $y = 0] :- r(v, n), n < 3, n != 1.`, db, "q")
	assertAgree(t, db.Doms, native, sql, "comparisons")
	if native.Len() == 0 {
		t.Fatalf("expected derivations")
	}
}

func TestSQLFactsAndMultiRule(t *testing.T) {
	db, err := faurelog.ParseDatabase(`e(1, 2). e(2, 3).`)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		seed(1).
		start(x) :- seed(x).
		reach(x, y) :- e(x, y).
		reach(x, z) :- e(x, y), reach(y, z).
		fromseed(y) :- start(x), reach(x, y).
	`
	native, sql := evalBoth(t, src, db, "fromseed")
	assertAgree(t, db.Doms, native, sql, "facts-multirule")
	if native.Len() != 2 {
		t.Errorf("expected {2, 3}, got %v", native)
	}
}

func TestSQLNegationAgrees(t *testing.T) {
	db, err := faurelog.ParseDatabase(`
		var $a.
		var $b.
		var $p.
		r(Mkt, CS, $p).
		fw($a, $b)[$a = Mkt].
	`)
	if err != nil {
		t.Fatal(err)
	}
	native, sql := evalBoth(t, `q() :- r(Mkt, CS, p), not fw(Mkt, CS).`, db, "q")
	assertAgree(t, db.Doms, native, sql, "negation")
	if native.Len() == 0 {
		t.Fatalf("expected a conditioned derivation")
	}
}

// TestSQLNegationOverDerived: negation over an IDB table computed in a
// lower stratum works through the SQL pipeline.
func TestSQLNegationOverDerived(t *testing.T) {
	db, err := faurelog.ParseDatabase(`
		var $x in {0, 1}.
		base(A)[$x = 1].
		all(A). all(B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		d(v) :- base(v).
		q(v) :- all(v), not d(v).
	`
	native, sql := evalBoth(t, src, db, "q")
	assertAgree(t, db.Doms, native, sql, "negation-derived")
}

// TestSQLEnterpriseConstraints: the §5 constraint programs (with
// negation and intermediate predicates) give the same panic verdicts
// through both backends on the baseline enterprise state.
func TestSQLEnterpriseConstraints(t *testing.T) {
	db := network.EnterpriseState(false)
	for _, c := range []struct {
		name string
		src  string
	}{
		{"T1", `panic() :- r(Mkt, CS, p), not fw(Mkt, CS).`},
		{"T2", `panic() :- r('R&D', y, 7000), not lb('R&D', y).`},
		{"C_s", `
			panic() :- vs(x, y, p).
			vs(x, y, p) :- r(x, y, p), not fw(x, y).
			vs(x, y, p) :- r(x, y, p), p != 80, p != 344, p != 7000.
		`},
	} {
		native, sql := evalBoth(t, c.src, db, "panic")
		assertAgree(t, db.Doms, native, sql, c.name)
	}
}

func TestSQLNegationThroughRecursionRejected(t *testing.T) {
	db := ctable.NewDatabase()
	prog := &faurelog.Program{Rules: faurelog.MustParse(`
		p(x) :- r(x), not q(x).
		q(x) :- r(x), not p(x).
	`).Rules}
	if _, err := Compile(prog, db); err == nil {
		t.Errorf("unstratifiable negation should be rejected")
	}
}

func TestScriptRenderParseRoundTrip(t *testing.T) {
	db := network.Figure1().ForwardingTable("f0")
	prog := faurelog.MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c), $x = 1.
	`)
	script, err := Compile(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	text := script.String()
	again, err := ParseScript(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\nscript:\n%s", err, text)
	}
	if again.String() != text {
		t.Errorf("render/parse/render not stable:\n--- first\n%s\n--- second\n%s", text, again.String())
	}
	for _, frag := range []string{"CREATE TABLE reach", "LOOP", "UNTIL FIXPOINT;", "DELETE FROM reach WHERE UNSAT;", "CMP($x, '=', 1)"} {
		if !strings.Contains(text, frag) {
			t.Errorf("script missing %q:\n%s", frag, text)
		}
	}
}

func TestStringLiteralEscaping(t *testing.T) {
	weird := `it's a "test" with \ backslash`
	lit := Lit{Value: cond.Str(weird)}
	script := &Script{Stmts: []Stmt{
		&CreateTable{Table: "r", Cols: []string{"c0"}},
		&InsertValues{Table: "r", Rows: [][]Expr{{lit, BoolLit{Value: true}}}},
	}}
	again, err := ParseScript(script.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, script.String())
	}
	iv := again.Stmts[1].(*InsertValues)
	got := iv.Rows[0][0].(Lit).Value.S
	if got != weird {
		t.Errorf("escaping broke the literal: %q vs %q", got, weird)
	}
}

func TestExecutorErrors(t *testing.T) {
	db := ctable.NewDatabase()
	cases := []string{
		`INSERT INTO nope VALUES (1, TRUE);`,
		`DELETE FROM nope WHERE UNSAT;`,
		`CREATE TABLE r (c0); CREATE TABLE r (c0);`,
		`CREATE TABLE r (c0); INSERT INTO r VALUES (1);`, // missing condition
		`CREATE TABLE r (c0); LOOP DELETE FROM r WHERE UNSAT; UNTIL FIXPOINT;`,
	}
	for _, src := range cases {
		script, err := ParseScript(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, _, err := Run(script, db, Options{}); err == nil {
			t.Errorf("script %q should fail at execution", src)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		`CREATE TABLE;`,
		`INSERT INTO r SELECT FROM;`,
		`DELETE FROM r WHERE SAT;`,
		`LOOP UNTIL NOTHING;`,
		`INSERT INTO r SELECT t0.c0 FROM r t0 MATCH t0.c0 = AND();`,
		`INSERT INTO r SELECT CMP(t0.c0, '~', 1) FROM r t0;`,
	}
	for _, src := range cases {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("script %q should fail to parse", src)
		}
	}
}

func TestNoIndexOptionAgrees(t *testing.T) {
	db := network.Figure1().ForwardingTable("f0")
	prog := faurelog.MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	withIdx, _, err := EvalSQL(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := EvalSQL(prog, db, Options{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	assertAgree(t, db.Doms, withIdx.Table("reach"), without.Table("reach"), "no-index")
}

// --- differential property test ---------------------------------------

// genProgramAndDB builds a random positive fauré-log program (chain
// joins with occasional comparisons) plus a random conditioned
// database over two boolean c-variables.
func genProgramAndDB(rnd *rand.Rand) (*faurelog.Program, *ctable.Database) {
	consts := []string{"A", "B", "C"}
	var facts strings.Builder
	facts.WriteString("var $u in {0, 1}.\nvar $v in {0, 1}.\n")
	for i := 0; i < 4+rnd.Intn(5); i++ {
		a := consts[rnd.Intn(len(consts))]
		b := consts[rnd.Intn(len(consts))]
		switch rnd.Intn(3) {
		case 0:
			fmt.Fprintf(&facts, "e(%s, %s).\n", a, b)
		case 1:
			fmt.Fprintf(&facts, "e(%s, %s)[$u = %d].\n", a, b, rnd.Intn(2))
		default:
			fmt.Fprintf(&facts, "e(%s, %s)[$v = %d].\n", a, b, rnd.Intn(2))
		}
	}
	db, err := faurelog.ParseDatabase(facts.String())
	if err != nil {
		panic(err)
	}
	src := `
		p(x, y) :- e(x, y).
		p(x, z) :- e(x, y), p(y, z).
	`
	switch rnd.Intn(4) {
	case 0:
		src += "q(x) :- p(x, y), $u+$v >= 1.\n"
	case 1:
		src += fmt.Sprintf("q(x) :- p(x, %s).\n", consts[rnd.Intn(len(consts))])
	case 2:
		// Negation over the recursive predicate (lower stratum for q).
		src += fmt.Sprintf("q(x) :- e(x, y), not p(y, %s).\n", consts[rnd.Intn(len(consts))])
	default:
		// Negation over a base relation.
		src += fmt.Sprintf("q(x) :- p(x, y), not e(y, %s).\n", consts[rnd.Intn(len(consts))])
	}
	return faurelog.MustParse(src), db
}

func TestSQLDifferentialRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		prog, db := genProgramAndDB(rnd)
		nat, err := faurelog.Eval(prog, db, faurelog.Options{})
		if err != nil {
			t.Fatalf("seed %d native: %v", seed, err)
		}
		sqlDB, _, err := EvalSQL(prog, db, Options{})
		if err != nil {
			t.Fatalf("seed %d sql: %v", seed, err)
		}
		for _, pred := range []string{"p", "q"} {
			assertAgree(t, db.Doms, nat.DB.Table(pred), sqlDB.Table(pred), fmt.Sprintf("seed %d %s", seed, pred))
		}
		return !t.Failed()
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestStatsReported(t *testing.T) {
	db := network.Figure1().ForwardingTable("f0")
	prog := faurelog.MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	_, stats, err := EvalSQL(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted == 0 {
		t.Errorf("no inserts counted")
	}
	if stats.Iterations == 0 {
		t.Errorf("no loop iterations counted")
	}
}

// TestNonRecursiveConsumerOutsideLoop: a rule reading a recursive
// predicate without feeding back into it compiles after the LOOP, not
// inside it.
func TestNonRecursiveConsumerOutsideLoop(t *testing.T) {
	db := network.Figure1().ForwardingTable("f0")
	prog := faurelog.MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
		cut(f, a, b) :- reach(f, a, b), $x = 1.
	`)
	script, err := Compile(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	text := script.String()
	loopStart := strings.Index(text, "LOOP")
	loopEnd := strings.Index(text, "UNTIL FIXPOINT;")
	cutInsert := strings.Index(text, "INSERT INTO cut")
	if loopStart < 0 || loopEnd < 0 || cutInsert < 0 {
		t.Fatalf("script shape unexpected:\n%s", text)
	}
	if cutInsert > loopStart && cutInsert < loopEnd {
		t.Errorf("cut insert should be outside the loop:\n%s", text)
	}
}

// spareTable returns a two-column table named name whose Tuples slice
// holds one row per pair and, beyond its length, spare capacity filled
// with marker rows — the shape that makes a shared array dangerous.
func spareTable(name string, pairs ...[2]int64) *ctable.Table {
	row := func(a, b cond.Term) ctable.Tuple { return ctable.NewTuple([]cond.Term{a, b}, nil) }
	backing := make([]ctable.Tuple, len(pairs)+4)
	for i := range backing {
		backing[i] = row(cond.Str("Spare"), cond.Str("Spare"))
	}
	for i, p := range pairs {
		backing[i] = row(cond.Int(p[0]), cond.Int(p[1]))
	}
	return &ctable.Table{Schema: ctable.Schema{Name: name, Attrs: []string{"a0", "a1"}}, Tuples: backing[:len(pairs)]}
}

// snapshot renders every element of s[:cap(s)], so a write past the
// slice's length shows up too.
func snapshot(s []ctable.Tuple) []string {
	full := s[:cap(s)]
	out := make([]string, len(full))
	for i, tp := range full {
		out[i] = tp.Key()
	}
	return out
}

// TestRunSharesInputWithoutWritingIt sends input tables with spare
// capacity through EvalSQL, then inserts a row into every table of the
// result and declares a variable in its domain map. Run shares the
// input's tuple arrays with its store and its result, so neither the
// run nor the later writes may reach the input: every input element,
// spare capacity included, must read as before.
func TestRunSharesInputWithoutWritingIt(t *testing.T) {
	prog := faurelog.MustParse(`
		reach(x, y) :- edge(x, y).
		reach(x, z) :- reach(x, y), edge(y, z).
	`)
	db := ctable.NewDatabase()
	db.AddTable(spareTable("edge", [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 4}))
	db.AddTable(spareTable("other", [2]int64{7, 8}))
	db.DeclareVar("x", solver.BoolDomain())
	before := map[string][]string{}
	lens := map[string]int{}
	for name, tbl := range db.Tables {
		before[name], lens[name] = snapshot(tbl.Tuples), tbl.Len()
	}
	out, _, err := EvalSQL(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Table("reach").Len(); got != 6 {
		t.Fatalf("closure holds %d pairs, want 6", got)
	}
	for _, name := range []string{"edge", "other", "reach"} {
		tbl := out.Table(name)
		if tbl == nil {
			t.Fatalf("result has no %s table", name)
		}
		if err := tbl.Insert(ctable.NewTuple([]cond.Term{cond.Int(90), cond.Int(91)}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	out.DeclareVar("y", solver.BoolDomain())
	if _, ok := db.Doms["y"]; ok {
		t.Error("declaring a variable in the result reached the input's domain map")
	}
	for name, tbl := range db.Tables {
		if tbl.Len() != lens[name] {
			t.Errorf("input %s grew from %d to %d rows", name, lens[name], tbl.Len())
			continue
		}
		after := snapshot(tbl.Tuples)
		if len(after) != len(before[name]) {
			t.Errorf("input %s capacity changed: %d -> %d", name, len(before[name]), len(after))
			continue
		}
		for i := range after {
			if after[i] != before[name][i] {
				t.Errorf("input %s element %d changed: %q -> %q", name, i, before[name][i], after[i])
			}
		}
	}
}
