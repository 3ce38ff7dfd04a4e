package faurelog

import (
	"strings"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

// spareTable returns a table named name whose Tuples slice holds the
// given tuples and, beyond its length, spare capacity filled with
// marker tuples — the shape that makes a shared load dangerous.
func spareTable(name string, arity int, tuples []ctable.Tuple) *ctable.Table {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = "a" + string(rune('0'+i))
	}
	backing := make([]ctable.Tuple, len(tuples)+4)
	copy(backing, tuples)
	for i := len(tuples); i < len(backing); i++ {
		vals := make([]cond.Term, arity)
		for c := range vals {
			vals[c] = cond.Str("Spare")
		}
		backing[i] = ctable.NewTuple(vals, nil)
	}
	return &ctable.Table{Schema: ctable.Schema{Name: name, Attrs: attrs}, Tuples: backing[:len(tuples)]}
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

// sharesArray reports whether two tuple slices share any element of
// their backing arrays (up to capacity).
func sharesArray(a, b []ctable.Tuple) bool {
	a, b = a[:cap(a)], b[:cap(b)]
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// checkUntouched asserts that in's elements, spare capacity included,
// still read as before, and that no table of the result aliases in.
func checkUntouched(t *testing.T, what string, in []ctable.Tuple, before []string, res *Result) {
	t.Helper()
	after := snapshot(in)
	if len(after) != len(before) {
		t.Fatalf("%s: input capacity changed: %d -> %d", what, len(before), len(after))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("%s: input element %d (len %d) changed: %q -> %q", what, i, len(in), before[i], after[i])
		}
	}
	for name, tbl := range res.DB.Tables {
		if sharesArray(tbl.Tuples, in) {
			t.Errorf("%s: result table %s shares the input's backing array", what, name)
		}
	}
}

// checkInsertsStayOut calls Insert on the result's edge, other and
// reach tables, then asserts that every table of in, spare capacity
// included, still reads as before. Result tables share arrays with the
// input (see Result); a result that reused the input's *Table values,
// or handed out an unclipped array, fails.
func checkInsertsStayOut(t *testing.T, what string, in *ctable.Database, res *Result) {
	t.Helper()
	before := map[string][]string{}
	lens := map[string]int{}
	for name, tbl := range in.Tables {
		before[name], lens[name] = snapshot(tbl.Tuples), tbl.Len()
	}
	for _, name := range []string{"edge", "other", "reach"} {
		tbl := res.DB.Table(name)
		if tbl == nil {
			t.Fatalf("%s: result has no %s table", what, name)
		}
		if err := tbl.Insert(edge(90, 91)); err != nil {
			t.Fatal(err)
		}
	}
	for name, tbl := range in.Tables {
		if tbl.Len() != lens[name] {
			t.Errorf("%s: inserting into the result grew input %s from %d to %d rows", what, name, lens[name], tbl.Len())
		}
		after := snapshot(tbl.Tuples)
		if len(after) != len(before[name]) {
			t.Errorf("%s: input %s capacity changed: %d -> %d", what, name, len(before[name]), len(after))
			continue
		}
		for i := range after {
			if after[i] != before[name][i] {
				t.Errorf("%s: input %s element %d changed: %q -> %q", what, name, i, before[name][i], after[i])
			}
		}
	}
}

func edge(a, b int64) ctable.Tuple {
	return ctable.NewTuple([]cond.Term{cond.Int(a), cond.Int(b)}, nil)
}

// TestLoadSharesInputWithoutWritingIt sends input tables with spare
// capacity through Eval — deriving into a relation of the input's own
// name — and through EvalIncrement — adding facts to an input
// relation. The store loads inputs by sharing their tuple slices, so
// a load that did not clip the capacity would append the derived or
// added tuples into the caller's array. Results share arrays the same
// way, so inserting into any table of a result must not reach the
// input either.
func TestLoadSharesInputWithoutWritingIt(t *testing.T) {
	closure := MustParse(`edge(x, z) :- edge(x, y), edge(y, z).`)
	db := ctable.NewDatabase()
	in := spareTable("edge", 2, []ctable.Tuple{edge(1, 2), edge(2, 3), edge(3, 4)})
	db.AddTable(in)
	db.AddTable(spareTable("other", 2, []ctable.Tuple{edge(7, 8)}))
	before := snapshot(in.Tuples)
	res, err := Eval(closure, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DB.Table("edge").Len(); got != 6 {
		t.Fatalf("closure derived %d edges, want 6", got)
	}
	checkUntouched(t, "Eval", in.Tuples, before, res)

	reach := MustParse(`
		reach(x, y) :- edge(x, y).
		reach(x, z) :- reach(x, y), edge(y, z).
	`)
	base, err := Eval(reach, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := base.DB.Clone()
	prevEdge := spareTable("edge", 2, prev.Table("edge").Tuples)
	prev.AddTable(prevEdge)
	prevReach := spareTable("reach", 2, prev.Table("reach").Tuples)
	prev.AddTable(prevReach)
	prev.AddTable(spareTable("other", 2, prev.Table("other").Tuples))
	beforeEdge, beforeReach := snapshot(prevEdge.Tuples), snapshot(prevReach.Tuples)
	inc, err := EvalIncrement(reach, prev, map[string][]ctable.Tuple{"edge": {edge(4, 5)}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.DB.Table("reach").Len(); got != 10 {
		t.Fatalf("increment reaches %d pairs, want 10", got)
	}
	checkUntouched(t, "EvalIncrement edge", prevEdge.Tuples, beforeEdge, inc)
	checkUntouched(t, "EvalIncrement reach", prevReach.Tuples, beforeReach, inc)

	checkInsertsStayOut(t, "Eval", db, base)
	checkInsertsStayOut(t, "EvalIncrement", prev, inc)
}

// TestNarrowTableRefused feeds a one-column fwd table to a program that
// reads fwd with three columns. Eval and EvalIncrement refuse it with
// an error naming the relation and both arities, instead of indexing
// past the table's width in the matcher; EvalIncrement also refuses
// one-column facts for a relation the program names but its previous
// database lacks.
func TestNarrowTableRefused(t *testing.T) {
	prog := MustParse(`reach(a, b, f) :- fwd(a, b, f).`)
	narrow := ctable.NewTuple([]cond.Term{cond.Str("F0")}, nil)
	db := ctable.NewDatabase()
	db.AddTable(spareTable("fwd", 1, []ctable.Tuple{narrow}))
	const want = "relation fwd has arity 1, but the program uses it with arity 3"
	if _, err := Eval(prog, db, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Eval: err = %v, want %q", err, want)
	}
	wide := ctable.NewTuple([]cond.Term{cond.Int(1), cond.Int(2), cond.Str("F0")}, nil)
	if _, err := EvalIncrement(prog, db, map[string][]ctable.Tuple{"fwd": {wide}}, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("EvalIncrement: err = %v, want %q", err, want)
	}
	const wantFact = "inserted tuple arity 1, relation fwd has 3"
	if _, err := EvalIncrement(prog, ctable.NewDatabase(), map[string][]ctable.Tuple{"fwd": {narrow}}, Options{}); err == nil || !strings.Contains(err.Error(), wantFact) {
		t.Errorf("EvalIncrement of a narrow fact: err = %v, want %q", err, wantFact)
	}
}
