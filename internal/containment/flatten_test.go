package containment

import (
	"strings"
	"testing"

	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/solver"
)

func TestFlattenSingleHelper(t *testing.T) {
	prog := faurelog.MustParse(`
		panic() :- v(x, p).
		v(x, p) :- r(x, p), p != 80.
	`)
	flat, err := Flatten(prog)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	if len(flat.Rules) != 1 {
		t.Fatalf("expected 1 flat rule, got:\n%s", flat)
	}
	printed := flat.String()
	if !strings.Contains(printed, "r(") || strings.Contains(printed, "v(") {
		t.Errorf("helper not inlined:\n%s", printed)
	}
	if !strings.Contains(printed, "!= 80") {
		t.Errorf("helper comparison lost:\n%s", printed)
	}
}

func TestFlattenFansOutUnions(t *testing.T) {
	// C_lb-shaped: three violation patterns through one helper.
	prog := faurelog.MustParse(`
		panic() :- vt(x, y, p).
		vt(x, CS, p) :- r(x, CS, p), x != Mkt.
		vt(x, CS, p) :- r(x, CS, p), not lb(x, CS).
		vt(x, CS, p) :- r(x, CS, p), p != 7000.
	`)
	flat, err := Flatten(prog)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	if len(flat.Rules) != 3 {
		t.Fatalf("expected 3 flat rules, got %d:\n%s", len(flat.Rules), flat)
	}
}

func TestFlattenNestedHelpers(t *testing.T) {
	prog := faurelog.MustParse(`
		panic() :- a(x).
		a(x) :- b(x), base(x).
		b(x) :- e(x, y).
	`)
	flat, err := Flatten(prog)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	printed := flat.String()
	if strings.Contains(printed, "a(") || strings.Contains(printed, "b(") {
		t.Errorf("nested helpers not fully inlined:\n%s", printed)
	}
}

func TestFlattenRejectsRecursion(t *testing.T) {
	prog := faurelog.MustParse(`
		panic() :- reach(A, B).
		reach(x, y) :- e(x, y).
		reach(x, z) :- e(x, y), reach(y, z).
	`)
	if _, err := Flatten(prog); err == nil {
		t.Errorf("recursive intermediate should be rejected")
	}
}

func TestFlattenRejectsNegatedIntermediate(t *testing.T) {
	prog := faurelog.MustParse(`
		panic() :- r(x), not v(x).
		v(x) :- s(x).
	`)
	if _, err := Flatten(prog); err == nil {
		t.Errorf("negated intermediate should be rejected")
	}
}

// TestSubsumesFlattenedClb: Subsumes flattens a target that is not
// flat, so the paper's C_lb can be the *target*: each of its three
// violation patterns is checked separately. C_lb is subsumed by itself (sanity) and by the union of
// three simpler constraints covering its patterns.
func TestSubsumesFlattenedClb(t *testing.T) {
	clb := MustConstraint("C_lb", `
		panic() :- vt(x, y, p).
		vt(x, CS, p) :- r(x, CS, p), x != Mkt, x != 'R&D'.
		vt(x, CS, p) :- r(x, CS, p), not lb(x, CS).
		vt(x, CS, p) :- r(x, CS, p), p != 7000.
	`)
	res, err := Subsumes(clb, []Constraint{clb}, solver.Domains{}, nil)
	if err != nil {
		t.Fatalf("Subsumes: %v", err)
	}
	if !res.Contained {
		t.Errorf("C_lb should subsume itself after flattening")
	}
	// A container covering anything touching CS subsumes all three
	// patterns.
	general := MustConstraint("G", `panic() :- r(x, CS, p).`)
	res, err = Subsumes(clb, []Constraint{general}, solver.Domains{}, nil)
	if err != nil {
		t.Fatalf("Subsumes: %v", err)
	}
	if !res.Contained {
		t.Errorf("every C_lb violation mentions r(_, CS, _), so G subsumes it")
	}
	// A container requiring port 80 does not.
	narrow := MustConstraint("N", `panic() :- r(x, CS, 80).`)
	res, err = Subsumes(clb, []Constraint{narrow}, solver.Domains{}, nil)
	if err != nil {
		t.Fatalf("Subsumes: %v", err)
	}
	if res.Contained {
		t.Errorf("the port-80 constraint must not subsume C_lb")
	}
}

// TestFlattenPreservesSemantics: the flattened program derives the
// same panic verdicts as the original on concrete states.
func TestFlattenPreservesSemantics(t *testing.T) {
	prog := faurelog.MustParse(`
		panic() :- vt(x, y, p).
		vt(x, CS, p) :- r(x, CS, p), x != Mkt.
		vt(x, CS, p) :- r(x, CS, p), not lb(x, CS).
	`)
	flat, err := Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	states := []string{
		`r(Mkt, CS, 7000). lb(Mkt, CS).`,
		`r(Dev, CS, 7000). lb(Dev, CS).`,
		`r(Mkt, CS, 7000).`,
		`r(Mkt, GS, 7000).`,
	}
	for _, src := range states {
		db, err := faurelog.ParseDatabase(src)
		if err != nil {
			t.Fatal(err)
		}
		want := firesOn(t, prog, db)
		got := firesOn(t, flat, db)
		if want != got {
			t.Errorf("state %q: original=%v flattened=%v", src, want, got)
		}
	}
}

func firesOn(t *testing.T, prog *faurelog.Program, db *ctable.Database) bool {
	t.Helper()
	res, err := faurelog.Eval(prog, db, faurelog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.DB.Table(PanicPred)
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
