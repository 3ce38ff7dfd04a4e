package rewrite

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/faurelog"
	"faure/internal/solver"
)

func lbChange(a, b string) Change {
	return Change{Pred: "lb", Values: []cond.Term{cond.Str(a), cond.Str(b)}}
}

func baseDB(t *testing.T) *ctable.Database {
	t.Helper()
	db, err := faurelog.ParseDatabase(`
		lb(Mkt, CS).
		lb('R&D', CS).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestUpdateString(t *testing.T) {
	u := Update{
		Inserts: []Change{lbChange("R&D", "GS")},
		Deletes: []Change{lbChange("Mkt", "CS")},
	}
	s := u.String()
	if !strings.Contains(s, "+lb(R&D, GS)") || !strings.Contains(s, "-lb(Mkt, CS)") {
		t.Errorf("String() = %q", s)
	}
}

func TestApplyInsertAndDelete(t *testing.T) {
	db := baseDB(t)
	u := Update{
		Inserts: []Change{lbChange("R&D", "GS")},
		Deletes: []Change{lbChange("Mkt", "CS")},
	}
	out, err := Apply(db, u)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// Original untouched.
	if db.Table("lb").Len() != 2 {
		t.Errorf("Apply must not mutate the input")
	}
	tbl := out.Table("lb")
	// The ground (Mkt, CS) row is dropped outright; (R&D, CS) kept;
	// (R&D, GS) added.
	if tbl.Len() != 2 {
		t.Fatalf("post-update lb should have 2 rows, got %d:\n%v", tbl.Len(), tbl)
	}
	keys := map[string]bool{}
	for _, tp := range tbl.Tuples {
		keys[tp.DataKey()] = true
	}
	if !keys["R&D|CS"] || !keys["R&D|GS"] {
		t.Errorf("unexpected rows: %v", keys)
	}
}

func TestApplyDeleteWithCVar(t *testing.T) {
	db := ctable.NewDatabase()
	db.DeclareVar("y", solver.EnumDomain(cond.Str("CS"), cond.Str("GS")))
	tbl := ctable.NewTable("lb", "subnet", "server")
	tbl.MustInsert(nil, cond.Str("Mkt"), cond.CVar("y"))
	db.AddTable(tbl)
	u := Update{Deletes: []Change{lbChange("Mkt", "CS")}}
	out, err := Apply(db, u)
	if err != nil {
		t.Fatal(err)
	}
	// The partially-known row survives conditioned on $y != CS.
	got := out.Table("lb")
	if got.Len() != 1 {
		t.Fatalf("expected 1 conditioned row, got %d", got.Len())
	}
	want := cond.Compare(cond.CVar("y"), cond.Ne, cond.Str("CS"))
	if !got.Tuples[0].Condition().Equal(want) {
		t.Errorf("condition = %v, want %v", got.Tuples[0].Condition(), want)
	}
}

func TestApplyInsertIntoMissingRelation(t *testing.T) {
	db := ctable.NewDatabase()
	u := Update{Inserts: []Change{lbChange("A", "B")}}
	out, err := Apply(db, u)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table("lb") == nil || out.Table("lb").Len() != 1 {
		t.Errorf("insert should create the relation")
	}
}

func TestValidateArity(t *testing.T) {
	db := baseDB(t)
	u := Update{Inserts: []Change{{Pred: "lb", Values: []cond.Term{cond.Str("X")}}}}
	if _, err := Apply(db, u); err == nil {
		t.Errorf("arity mismatch should be rejected")
	}
}

func TestRewriteConstraintListing4(t *testing.T) {
	// T2: panic() :- r(R&D, y, 7000), not lb(R&D, y).
	t2 := faurelog.MustParse(`panic() :- r('R&D', y, 7000), not lb('R&D', y).`)
	u := Update{
		Inserts: []Change{lbChange("R&D", "GS")},
		Deletes: []Change{lbChange("Mkt", "CS")},
	}
	rewritten, err := RewriteConstraint(t2, u)
	if err != nil {
		t.Fatalf("RewriteConstraint: %v", err)
	}
	printed := rewritten.String()
	// Expect the copy rule, the inserted fact, the per-column delete
	// rules and the substituted constraint.
	for _, frag := range []string{
		"lb_u0(x0, x1) :- lb(x0, x1).",
		"lb_u0(R&D, GS).",
		"lb_u1(x0, x1) :- lb_u0(x0, x1), x0 != Mkt.",
		"lb_u1(x0, x1) :- lb_u0(x0, x1), x1 != CS.",
		"not lb_u1(R&D, y)",
	} {
		if !strings.Contains(printed, frag) {
			t.Errorf("rewritten program missing %q:\n%s", frag, printed)
		}
	}
}

func TestRewriteEquivalence(t *testing.T) {
	// For several states and updates: eval(C', pre) == eval(C, post).
	t2 := faurelog.MustParse(`panic() :- r('R&D', y, 7000), not lb('R&D', y).`)
	u := Update{
		Inserts: []Change{lbChange("R&D", "GS")},
		Deletes: []Change{lbChange("Mkt", "CS")},
	}
	rewritten, err := RewriteConstraint(t2, u)
	if err != nil {
		t.Fatal(err)
	}
	states := []string{
		`r('R&D', GS, 7000).`,
		`r('R&D', GS, 7000). lb('R&D', GS).`,
		`r('R&D', CS, 7000). lb('R&D', CS).`,
		`r('R&D', CS, 7000). lb(Mkt, CS).`,
		`r(Mkt, CS, 7000).`,
	}
	for _, src := range states {
		pre, err := faurelog.ParseDatabase(src)
		if err != nil {
			t.Fatal(err)
		}
		post, err := Apply(pre, u)
		if err != nil {
			t.Fatal(err)
		}
		onPost := panics(t, t2, post)
		viaRewrite := panics(t, rewritten, pre)
		if onPost != viaRewrite {
			t.Errorf("state %q: post-eval %v, rewrite-eval %v", src, onPost, viaRewrite)
		}
	}
}

func panics(t *testing.T, prog *faurelog.Program, db *ctable.Database) bool {
	t.Helper()
	res, err := faurelog.Eval(prog, db, faurelog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.DB.Table("panic")
	if tbl == nil {
		return false
	}
	for _, tp := range tbl.Tuples {
		if tp.Condition().IsTrue() {
			return true
		}
	}
	return false
}

func TestRewriteRejectsDerivedPredicate(t *testing.T) {
	prog := faurelog.MustParse(`
		panic() :- v(x).
		v(x) :- r(x).
	`)
	u := Update{Inserts: []Change{{Pred: "v", Values: []cond.Term{cond.Str("A")}}}}
	if _, err := RewriteConstraint(prog, u); err == nil {
		t.Errorf("updating a derived predicate should be rejected")
	}
}

func TestRewriteArityMismatch(t *testing.T) {
	prog := faurelog.MustParse(`panic() :- lb(x, y).`)
	u := Update{Inserts: []Change{{Pred: "lb", Values: []cond.Term{cond.Str("A")}}}}
	if _, err := RewriteConstraint(prog, u); err == nil {
		t.Errorf("arity mismatch between change and constraint usage should be rejected")
	}
}

func TestRewriteUntouchedConstraintUnchanged(t *testing.T) {
	prog := faurelog.MustParse(`panic() :- r(x).`)
	u := Update{Inserts: []Change{lbChange("A", "B")}}
	rewritten, err := RewriteConstraint(prog, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rewritten.Rules) != 1 {
		t.Errorf("constraint not mentioning lb should be unchanged:\n%s", rewritten)
	}
}

func TestTouchedAndAccessors(t *testing.T) {
	u := Update{
		Inserts: []Change{lbChange("A", "B"), {Pred: "r", Values: []cond.Term{cond.Str("X")}}},
		Deletes: []Change{lbChange("C", "D")},
	}
	touched := u.Touched()
	if !touched["lb"] || !touched["r"] || len(touched) != 2 {
		t.Errorf("Touched = %v", touched)
	}
	if len(u.InsertsFor("lb")) != 1 || len(u.DeletesFor("lb")) != 1 || len(u.InsertsFor("r")) != 1 {
		t.Errorf("accessors wrong")
	}
}

func TestParseUpdate(t *testing.T) {
	u, err := ParseUpdate(`
		% the Listing 4 update
		+lb('R&D', GS).
		-lb(Mkt, CS).
		+r(Mkt, CS, $p).
	`)
	if err != nil {
		t.Fatalf("ParseUpdate: %v", err)
	}
	if len(u.Inserts) != 2 || len(u.Deletes) != 1 {
		t.Fatalf("parsed shape wrong: %v", u)
	}
	if u.Inserts[1].Values[2].S != "p" || !u.Inserts[1].Values[2].IsCVar() {
		t.Errorf("c-variable value lost: %v", u.Inserts[1])
	}
	if u.Deletes[0].Pred != "lb" {
		t.Errorf("delete pred = %s", u.Deletes[0].Pred)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	for _, src := range []string{
		`lb(A, B).`,  // missing sign
		`+lb(A, B)`,  // missing period
		`+lb(x).`,    // program variable
		`+lb A, B).`, // missing paren
		`+ .`,        // missing relation
	} {
		if _, err := ParseUpdate(src); err == nil {
			t.Errorf("update %q should fail to parse", src)
		}
	}
	// Empty update is fine.
	u, err := ParseUpdate(``)
	if err != nil || len(u.Inserts)+len(u.Deletes) != 0 {
		t.Errorf("empty update: %v %v", u, err)
	}
}

// TestSequenceComposesUpdates: rewriting through u1;u2 agrees with
// applying both updates and evaluating the original constraint.
func TestSequenceComposesUpdates(t *testing.T) {
	t2 := faurelog.MustParse(`panic() :- r('R&D', y, 7000), not lb('R&D', y).`)
	u1 := Update{Deletes: []Change{lbChange("R&D", "GS")}}
	u2 := Update{Inserts: []Change{lbChange("R&D", "GS")}}
	seq, err := Sequence(t2, []Update{u1, u2})
	if err != nil {
		t.Fatalf("Sequence: %v", err)
	}
	states := []string{
		`r('R&D', GS, 7000). lb('R&D', GS).`,
		`r('R&D', GS, 7000).`,
		`r('R&D', CS, 7000). lb('R&D', CS).`,
	}
	for _, src := range states {
		pre, err := faurelog.ParseDatabase(src)
		if err != nil {
			t.Fatal(err)
		}
		post, err := ApplyAll(pre, []Update{u1, u2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := panics(t, seq, pre), panics(t, t2, post); got != want {
			t.Errorf("state %q: sequence=%v direct=%v", src, got, want)
		}
	}
}

// TestSequenceOrderMatters: delete-then-insert differs from
// insert-then-delete of the same tuple.
func TestSequenceOrderMatters(t *testing.T) {
	c := faurelog.MustParse(`panic() :- r('R&D', y, 7000), not lb('R&D', y).`)
	del := Update{Deletes: []Change{lbChange("R&D", "GS")}}
	ins := Update{Inserts: []Change{lbChange("R&D", "GS")}}
	pre, err := faurelog.ParseDatabase(`r('R&D', GS, 7000). lb('R&D', GS).`)
	if err != nil {
		t.Fatal(err)
	}
	// delete then insert: lb(R&D, GS) present afterwards → holds.
	seqDI, err := Sequence(c, []Update{del, ins})
	if err != nil {
		t.Fatal(err)
	}
	// insert then delete: lb(R&D, GS) absent afterwards → violated.
	seqID, err := Sequence(c, []Update{ins, del})
	if err != nil {
		t.Fatal(err)
	}
	if panics(t, seqDI, pre) {
		t.Errorf("delete-then-insert should leave T2 holding")
	}
	if !panics(t, seqID, pre) {
		t.Errorf("insert-then-delete should violate T2")
	}
}

// FuzzParseUpdate checks the update parser never panics and accepted
// updates render/reparse stably.
func FuzzParseUpdate(f *testing.F) {
	for _, s := range []string{
		`+lb('R&D', GS).`,
		`-lb(Mkt, CS).`,
		`+r(Mkt, CS, $p). -fw(A, B).`,
		`+x().`,
		`lb(A).`,
		`+`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseUpdate(src)
		if err != nil {
			return
		}
		// A parsed update's String() form must parse back to the same
		// update — but String() renders without trailing periods, so
		// rebuild the textual form from changes.
		var b strings.Builder
		for _, c := range u.Inserts {
			b.WriteString("+" + c.String() + ".\n")
		}
		for _, c := range u.Deletes {
			b.WriteString("-" + c.String() + ".\n")
		}
		again, err := ParseUpdate(b.String())
		if err != nil {
			t.Fatalf("rendered update failed to reparse: %v\nsource %q\nrendered %q", err, src, b.String())
		}
		if len(again.Inserts) != len(u.Inserts) || len(again.Deletes) != len(u.Deletes) {
			t.Fatalf("round trip changed shape: %v vs %v", u, again)
		}
	})
}

// TestApplyBudgetedAtomicity pins the documented contract: whatever
// the outcome — success, budget trip, injected fault at any change —
// the input database is bit-identical to what it was before the call.
// The faure-serve writer relies on this to keep serving the current
// generation after a failed apply with no repair step.
func TestApplyBudgetedAtomicity(t *testing.T) {
	mk := func() *ctable.Database {
		db := ctable.NewDatabase()
		db.DeclareVar("x", solver.BoolDomain())
		tbl := ctable.NewTable("lb", "team", "dst")
		tbl.MustInsert(cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(1)), cond.Str("Mkt"), cond.Str("CS"))
		tbl.MustInsert(nil, cond.Str("R&D"), cond.Str("CS"))
		db.AddTable(tbl)
		return db
	}
	dump := func(db *ctable.Database) string {
		var b strings.Builder
		for _, name := range db.TableNames() {
			fmt.Fprintf(&b, "%v\n", db.Table(name))
		}
		return b.String()
	}
	u := Update{
		Inserts: []Change{lbChange("R&D", "GS"), lbChange("Ops", "GS")},
		Deletes: []Change{lbChange("Mkt", "CS")},
	}

	// Success leaves the input untouched.
	db := mk()
	before := dump(db)
	if _, err := ApplyBudgeted(db, u, nil); err != nil {
		t.Fatal(err)
	}
	if dump(db) != before {
		t.Error("successful apply mutated the input")
	}

	// An injected fault at every change position (deletes fire first,
	// then inserts) discards the clone and leaves the input untouched.
	for nth := 1; nth <= 3; nth++ {
		faultinject.Arm(faultinject.RewriteApply, nth, errors.New("injected"))
		db := mk()
		before := dump(db)
		if _, err := ApplyBudgeted(db, u, nil); err == nil {
			t.Fatalf("change %d: armed apply succeeded", nth)
		}
		if dump(db) != before {
			t.Errorf("change %d: failed apply mutated the input", nth)
		}
		faultinject.Disarm()
	}

	// A budget trip behaves the same.
	bud := budget.New(nil, budget.Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	db = mk()
	before = dump(db)
	if _, err := ApplyBudgeted(db, u, bud); err == nil {
		t.Skip("nanosecond deadline did not trip")
	}
	if dump(db) != before {
		t.Error("budget-tripped apply mutated the input")
	}
}

// TestApplyDeleteKeepsRowsThatDifferInAConstant: on random tables of
// constants, c-variables and conditions (nil and false included), a
// row that holds a different constant from the deleted tuple in some
// column meets a disequality that folds to true, so the delete keeps
// it with its own condition, the very pointer, and drops it only when
// that condition is false. A scoped delete in faure-serve relies on
// this to leave the base rows of every other partition as they were.
func TestApplyDeleteKeepsRowsThatDifferInAConstant(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	terms := []cond.Term{cond.Int(0), cond.Int(1), cond.Str("a"), cond.CVar("x"), cond.CVar("y")}
	term := func() cond.Term { return terms[rnd.Intn(len(terms))] }
	atom := func() *cond.Formula {
		return cond.Compare(cond.CVar([]string{"x", "y"}[rnd.Intn(2)]), cond.Eq, cond.Int(int64(rnd.Intn(2))))
	}
	condition := func() *cond.Formula {
		switch rnd.Intn(5) {
		case 0:
			return nil
		case 1:
			return cond.False()
		case 2:
			return atom()
		case 3:
			return cond.And(atom(), atom())
		default:
			return cond.True()
		}
	}
	differ := func(a, b []cond.Term) bool {
		for i := range a {
			if a[i].IsConst() && b[i].IsConst() && a[i] != b[i] {
				return true
			}
		}
		return false
	}
	checked := 0
	for iter := 0; iter < 500; iter++ {
		db := ctable.NewDatabase()
		tbl := ctable.NewTable("r", "a", "b")
		for i := 0; i < rnd.Intn(8); i++ {
			// Appended directly, so nil and false conditions stay.
			tbl.Tuples = append(tbl.Tuples, ctable.Tuple{Values: []cond.Term{term(), term()}, Cond: condition()})
		}
		db.AddTable(tbl)
		d := Change{Pred: "r", Values: []cond.Term{term(), term()}}
		out, err := Apply(db, Update{Deletes: []Change{d}})
		if err != nil {
			t.Fatal(err)
		}
		// The delete shares each kept row's value slice, which
		// identifies the row.
		kept := map[*cond.Term]ctable.Tuple{}
		for _, tp := range out.Table("r").Tuples {
			kept[&tp.Values[0]] = tp
		}
		for i, tp := range tbl.Tuples {
			if !differ(tp.Values, d.Values) {
				continue
			}
			checked++
			got, ok := kept[&tp.Values[0]]
			if tp.Condition().IsFalse() {
				if ok {
					t.Fatalf("iteration %d, row %d %v: kept with a false condition", iter, i, tp)
				}
				continue
			}
			if !ok || got.Cond != tp.Condition() {
				t.Fatalf("iteration %d, row %d %v: delete of %v gave %v (kept %v)", iter, i, tp, d.Values, got, ok)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no row differed from its delete in a constant")
	}
}
