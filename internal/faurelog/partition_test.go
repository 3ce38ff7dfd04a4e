package faurelog

import (
	"maps"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

func TestPartition(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want map[string]int // nil: unpartitioned
	}{
		{"reachability", `
			reach(f, n1, n2) :- fwd(f, n1, n2).
			reach(f, n1, n2) :- fwd(f, n1, n3), reach(f, n3, n2).`,
			map[string]int{"fwd": 0, "reach": 0}},
		{"q7 pinned pair", `t2(f, 2, 5) :- t1(f, 2, 5), $y = 0.`,
			map[string]int{"t1": 0, "t2": 0}},
		{"ambiguous columns settled by the lowest choice", `out(a, f) :- in(f, a), side(a, f).`,
			map[string]int{"in": 0, "out": 1, "side": 1}},
		{"negated literal binds the partition variable", `
			reach(f, a, b) :- fwd(f, a, b).
			reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
			blocked(f, a, b) :- fwd(f, a, b), not reach(f, b, a).`,
			map[string]int{"blocked": 0, "fwd": 0, "reach": 0}},
		{"two-column reachability", `
			reach(a, b) :- link(a, b).
			reach(a, c) :- link(a, b), reach(b, c).`, nil},
		{"negated literal with a constant partition value", `
			reach(f, a, b) :- fwd(f, a, b).
			reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
			unreachable(n) :- node(n), not reach(F0, 1, n).`, nil},
		{"fact rule", `
			reach(f, a, b) :- fwd(f, a, b).
			fwd(F0, 1, 2).`, nil},
		{"0-ary head", `
			reach(f, a, b) :- fwd(f, a, b).
			panic() :- reach(f, a, b), a = b.`, nil},
		{"constant at the partition column", `
			reach(f, a, b) :- fwd(f, a, b).
			reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
			reach(F0, a, b) :- alt(a, b).`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Partition(MustParse(tc.src))
			if !maps.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
				t.Errorf("Partition = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPartitionsRestrict: Restrict keeps the touched partitions' rows
// in order and leaves out rows of the wrong arity, as the engine's load
// does; a c-variable at the partition column, in the input or in the
// parent, or a table too narrow to hold the column, refuses the scope.
func TestPartitionsRestrict(t *testing.T) {
	pt := Partition(MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).`))
	parse := func(src string) *ctable.Database {
		db, err := ParseDatabase(src)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := parse("fwd(F0, 1, 2).\nfwd(F1, 1, 2).\nfwd(F0, 2, 3).\n")
	fwd := db.Table("fwd")
	f0 := fwd.Tuples[0].Values[0]
	fwd.Tuples = append(fwd.Tuples, ctable.NewTuple([]cond.Term{f0}, nil))
	touched := map[cond.Term]bool{f0: true}
	got, ok := pt.Restrict(db, db, touched)
	if !ok {
		t.Fatal("constant partitions refused")
	}
	if rows := got.Table("fwd").Tuples; len(rows) != 2 || rows[0].Values[1] != cond.Int(1) || rows[1].Values[1] != cond.Int(2) {
		t.Errorf("restricted fwd = %v, want F0's two rows in order", rows)
	}
	cvar := parse("var $p in {F0, F1}.\nfwd($p, 1, 2).\n")
	narrow := ctable.NewDatabase()
	narrow.AddTable(ctable.NewTable("fwd"))
	for _, tc := range []struct {
		name       string
		parent, in *ctable.Database
	}{
		{"c-variable in the parent", cvar, db},
		{"c-variable in the input", db, cvar},
		{"table narrower than the column", narrow, narrow},
	} {
		if _, ok := pt.Restrict(tc.parent, tc.in, touched); ok {
			t.Errorf("%s: scoped", tc.name)
		}
	}
}
