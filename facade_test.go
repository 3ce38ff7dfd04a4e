package faure_test

import (
	"strings"
	"testing"
	"time"

	"faure"
)

func TestParseConditionFacade(t *testing.T) {
	f, err := faure.ParseCondition(`$x = 1 && ($y != Mkt || $z >= 2)`)
	if err != nil {
		t.Fatalf("ParseCondition: %v", err)
	}
	vars := f.CVars()
	if len(vars) != 3 {
		t.Errorf("CVars = %v", vars)
	}
	// Program variables are rejected.
	if _, err := faure.ParseCondition(`x = 1`); err == nil {
		t.Errorf("program variable should be rejected")
	}
	if _, err := faure.ParseCondition(`$x = 1 extra`); err == nil {
		t.Errorf("trailing input should be rejected")
	}
}

func TestAlgebraFacade(t *testing.T) {
	tbl := faure.NewTable("r", "a", "b")
	tbl.MustInsert(nil, faure.Str("A"), faure.Int(1))
	tbl.MustInsert(nil, faure.Str("B"), faure.Int(2))
	sel, err := faure.SelectRows(tbl, faure.Selection{
		Left: faure.Column(1), Op: faure.OpGt, Right: faure.ConstantOperand(faure.Int(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 1 {
		t.Errorf("selection kept %d rows", sel.Len())
	}
	proj, err := faure.ProjectCols(sel, "p", 0)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 1 || !proj.Tuples[0].Values[0].Equal(faure.Str("B")) {
		t.Errorf("projection wrong: %v", proj)
	}
	joined, err := faure.JoinTables(tbl, proj, "j", [2]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 1 {
		t.Errorf("join wrong: %v", joined)
	}
	u, err := faure.UnionTables(proj, proj, "u")
	if err != nil || u.Len() != 2 {
		t.Errorf("union wrong: %v (%v)", u, err)
	}
	r, err := faure.RenameTable(u, "renamed")
	if err != nil || r.Schema.Name != "renamed" {
		t.Errorf("rename wrong: %v (%v)", r, err)
	}
}

func TestFormatDatabaseFacade(t *testing.T) {
	db, err := faure.ParseDatabase(`
		var $x in {0, 1}.
		r(A)[$x = 1].
	`)
	if err != nil {
		t.Fatal(err)
	}
	text := faure.FormatDatabase(db)
	again, err := faure.ParseDatabase(text)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
	if again.Table("r").Len() != 1 {
		t.Errorf("round trip lost tuples")
	}
}

func TestEvalSQLFacade(t *testing.T) {
	db, err := faure.ParseDatabase(`fwd(F0, 1, 2). fwd(F0, 2, 3).`)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := faure.EvalSQL(faure.ReachabilityProgram(), db, faure.SQLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Table("reach").Len() != 3 {
		t.Errorf("reach = %v", out.Table("reach"))
	}
	if stats.Inserted != 3 {
		t.Errorf("Inserted = %d", stats.Inserted)
	}
	script, err := faure.CompileSQL(faure.ReachabilityProgram(), db)
	if err != nil || !strings.Contains(script, "LOOP") {
		t.Errorf("CompileSQL = %q (%v)", script, err)
	}
}

func TestTopologyFacades(t *testing.T) {
	if got := len(faure.ChainTopology(4).Protected); got != 3 {
		t.Errorf("chain protected = %d", got)
	}
	if got := len(faure.RingTopology(4).Protected); got != 4 {
		t.Errorf("ring protected = %d", got)
	}
}

func TestFormatTable4Durations(t *testing.T) {
	res := &faure.Table4Result{
		Prefixes: 7,
		Rows: []faure.Table4Row{
			{Query: "q4-q5", Stats: faure.Stats{SQLTime: 2 * time.Second, SolverTime: 3 * time.Millisecond}, Tuples: 10},
			{Query: "q6", Stats: faure.Stats{SQLTime: 150 * time.Microsecond}, Tuples: 20},
			{Query: "q7", Stats: faure.Stats{SQLTime: time.Millisecond, SolverTime: time.Second}, Tuples: 30},
			{Query: "q8", Tuples: 40},
		},
	}
	out := faure.FormatTable4([]*faure.Table4Result{res})
	for _, frag := range []string{"2.00s", "3.0ms", "150µs", "7"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted table missing %q:\n%s", frag, out)
		}
	}
}

func TestApplyUpdateFacadeWithParsedUpdate(t *testing.T) {
	db, err := faure.ParseDatabase(`lb(Mkt, CS).`)
	if err != nil {
		t.Fatal(err)
	}
	u, err := faure.ParseUpdate(`-lb(Mkt, CS). +lb('R&D', GS).`)
	if err != nil {
		t.Fatal(err)
	}
	post, err := faure.ApplyUpdate(db, u)
	if err != nil {
		t.Fatal(err)
	}
	tbl := post.Table("lb")
	if tbl.Len() != 1 || tbl.Tuples[0].DataKey() != "R&D|GS" {
		t.Errorf("update application wrong: %v", tbl)
	}
}

func TestCheckLosslessFacade(t *testing.T) {
	db, err := faure.ParseDatabase(`
		var $x in {0, 1}.
		fwd(F0, 1, 2)[$x = 1].
		fwd(F0, 1, 3)[$x = 0].
	`)
	if err != nil {
		t.Fatal(err)
	}
	mis, err := faure.CheckLossless(faure.ReachabilityProgram(), db, []string{"x"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mis) != 0 {
		t.Errorf("mismatches: %v", mis)
	}
}
