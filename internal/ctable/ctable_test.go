package ctable

import (
	"strings"
	"testing"

	"faure/internal/cond"
	"faure/internal/solver"
)

func TestTupleBasics(t *testing.T) {
	tp := NewTuple([]cond.Term{cond.Str("A"), cond.CVar("x")}, nil)
	if !tp.Condition().IsTrue() {
		t.Errorf("nil condition should normalise to true")
	}
	if tp.Ground() {
		t.Errorf("tuple with c-var should not be ground")
	}
	g := NewTuple([]cond.Term{cond.Str("A"), cond.Int(1)}, cond.True())
	if !g.Ground() {
		t.Errorf("constant tuple should be ground")
	}
	if tp.DataKey() == g.DataKey() {
		t.Errorf("different tuples share a data key")
	}
}

func TestTupleString(t *testing.T) {
	tp := NewTuple([]cond.Term{cond.Int(1), cond.Int(2)},
		cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(1)))
	s := tp.String()
	if !strings.Contains(s, "(1, 2)") || !strings.Contains(s, "$x = 1") {
		t.Errorf("String() = %q", s)
	}
	plain := NewTuple([]cond.Term{cond.Int(1)}, cond.True())
	if strings.Contains(plain.String(), "[") {
		t.Errorf("true condition should be omitted: %q", plain.String())
	}
}

func TestTupleSubst(t *testing.T) {
	tp := NewTuple(
		[]cond.Term{cond.CVar("x"), cond.Str("B")},
		cond.Compare(cond.CVar("x"), cond.Ne, cond.Str("B")),
	)
	st := tp.Subst(map[string]cond.Term{"x": cond.Str("A")})
	if !st.Values[0].Equal(cond.Str("A")) {
		t.Errorf("value substitution failed: %v", st.Values)
	}
	if !st.Condition().IsTrue() {
		t.Errorf("condition A != B should evaluate true, got %v", st.Condition())
	}
}

func TestTableInsertArity(t *testing.T) {
	tbl := NewTable("r", "a", "b")
	if err := tbl.Insert(NewTuple([]cond.Term{cond.Int(1)}, nil)); err == nil {
		t.Errorf("arity mismatch should error")
	}
	if err := tbl.Insert(NewTuple([]cond.Term{cond.Int(1), cond.Int(2)}, nil)); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	// False conditions are dropped silently.
	if err := tbl.Insert(NewTuple([]cond.Term{cond.Int(3), cond.Int(4)}, cond.False())); err != nil {
		t.Errorf("false-conditioned insert should be a no-op, got %v", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("table should hold 1 tuple, got %d", tbl.Len())
	}
}

func TestTableCVars(t *testing.T) {
	tbl := NewTable("r", "a")
	tbl.MustInsert(cond.Compare(cond.CVar("c"), cond.Eq, cond.Int(1)), cond.CVar("a"))
	tbl.MustInsert(nil, cond.CVar("b"))
	got := tbl.CVars()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("CVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CVars = %v, want %v", got, want)
		}
	}
}

func buildFailoverDB() *Database {
	db := NewDatabase()
	db.DeclareVar("x", solver.BoolDomain())
	f := NewTable("f", "src", "dst")
	f.MustInsert(cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(1)), cond.Int(1), cond.Int(2))
	f.MustInsert(cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(0)), cond.Int(1), cond.Int(3))
	db.AddTable(f)
	return db
}

func TestEachWorld(t *testing.T) {
	db := buildFailoverDB()
	worlds := 0
	rows := map[string]int{}
	err := db.EachWorld([]string{"x"}, func(w World) bool {
		worlds++
		for _, row := range w.Tables["f"] {
			rows[row[1].String()]++
		}
		return true
	})
	if err != nil {
		t.Fatalf("EachWorld: %v", err)
	}
	if worlds != 2 {
		t.Errorf("expected 2 worlds, got %d", worlds)
	}
	// Each world contains exactly one of the two alternatives.
	if rows["2"] != 1 || rows["3"] != 1 {
		t.Errorf("world rows wrong: %v", rows)
	}
}

func TestEachWorldUndecided(t *testing.T) {
	db := buildFailoverDB()
	db.DeclareVar("y", solver.BoolDomain())
	tbl := db.Table("f")
	tbl.MustInsert(cond.Compare(cond.CVar("y"), cond.Eq, cond.Int(1)), cond.Int(2), cond.Int(4))
	// Enumerating only x leaves $y undecided.
	err := db.EachWorld([]string{"x"}, func(w World) bool { return true })
	if err == nil {
		t.Errorf("partial enumeration should report undecided conditions")
	}
}

func TestNormalize(t *testing.T) {
	db := NewDatabase()
	db.DeclareVar("x", solver.BoolDomain())
	x := cond.CVar("x")
	tbl := NewTable("r", "a")
	// Contradictory condition: removed.
	tbl.MustInsert(cond.And(
		cond.Compare(x, cond.Eq, cond.Int(0)),
		cond.Compare(x, cond.Eq, cond.Int(1)),
	), cond.Str("A"))
	// Duplicate data parts: merged by OR.
	tbl.MustInsert(cond.Compare(x, cond.Eq, cond.Int(0)), cond.Str("B"))
	tbl.MustInsert(cond.Compare(x, cond.Eq, cond.Int(1)), cond.Str("B"))
	db.AddTable(tbl)
	// Another table sharing the array (as evaluation results do) keeps
	// its rows.
	shared := tbl.Tuples
	before := make([]string, len(shared))
	for i, tp := range shared {
		before[i] = tp.Key()
	}

	s := solver.New(db.Doms)
	removed, err := db.Normalize(s)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if removed != 2 {
		t.Errorf("removed = %d, want 2 (one contradictory, one merged)", removed)
	}
	if db.Table("r").Len() != 1 {
		t.Fatalf("table should have 1 tuple, got %d", db.Table("r").Len())
	}
	merged := db.Table("r").Tuples[0]
	ok, err := s.Valid(merged.Condition())
	if err != nil || !ok {
		t.Errorf("merged condition should be valid (x=0 || x=1), got %v", merged.Condition())
	}
	for i, tp := range shared {
		if tp.Key() != before[i] {
			t.Errorf("Normalize wrote row %d of the array it read: %q -> %q", i, before[i], tp.Key())
		}
	}
}

func TestDatabaseCloneIndependence(t *testing.T) {
	db := buildFailoverDB()
	c := db.Clone()
	c.Table("f").MustInsert(nil, cond.Int(9), cond.Int(9))
	if db.Table("f").Len() == c.Table("f").Len() {
		t.Errorf("clone should be independent")
	}
	c.DeclareVar("zz", solver.BoolDomain())
	if _, ok := db.Doms["zz"]; ok {
		t.Errorf("clone domains should be independent")
	}
}

func TestDatabaseStringAndNames(t *testing.T) {
	db := buildFailoverDB()
	if got := db.TableNames(); len(got) != 1 || got[0] != "f" {
		t.Errorf("TableNames = %v", got)
	}
	if s := db.String(); !strings.Contains(s, "f(src, dst)") {
		t.Errorf("String missing schema: %q", s)
	}
	if vs := db.CVars(); len(vs) != 1 || vs[0] != "x" {
		t.Errorf("CVars = %v", vs)
	}
}

func TestClassify(t *testing.T) {
	db := NewDatabase()
	db.DeclareVar("x", solver.BoolDomain())
	x := cond.CVar("x")
	tbl := NewTable("r", "a")
	// Certain: derived under x=1 and under x=0.
	tbl.MustInsert(cond.Compare(x, cond.Eq, cond.Int(1)), cond.Str("C"))
	tbl.MustInsert(cond.Compare(x, cond.Eq, cond.Int(0)), cond.Str("C"))
	// Possible: only under x=1.
	tbl.MustInsert(cond.Compare(x, cond.Eq, cond.Int(1)), cond.Str("P"))
	// Impossible: contradictory (inserted directly, bypassing pruning).
	tbl.Tuples = append(tbl.Tuples, NewTuple([]cond.Term{cond.Str("I")}, cond.And(
		cond.Compare(x, cond.Eq, cond.Int(0)),
		cond.Compare(x, cond.Eq, cond.Int(1)),
	)))
	s := solver.New(db.Doms)
	answers, err := Classify(tbl, s)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]AnswerStatus{}
	for _, a := range answers {
		got[a.Values[0].S] = a.Status
	}
	if got["C"] != Certain || got["P"] != Possible || got["I"] != Impossible {
		t.Errorf("classification wrong: %v", got)
	}
	// Statuses render.
	if Certain.String() != "certain" || Possible.String() != "possible" || Impossible.String() != "impossible" {
		t.Errorf("status strings wrong")
	}
	// Deterministic order by data key.
	if answers[0].Values[0].S > answers[1].Values[0].S {
		t.Errorf("answers not sorted: %v", answers)
	}
}
