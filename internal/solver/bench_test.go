package solver

import (
	"strconv"
	"testing"

	"faure/internal/cond"
)

// benchFormula builds a mixed and/or formula over w boolean variables.
func benchFormula(w int) (*cond.Formula, Domains) {
	doms := Domains{}
	var disj []*cond.Formula
	for i := 0; i < w; i++ {
		v := "sv" + strconv.Itoa(i)
		doms[v] = BoolDomain()
		disj = append(disj, cond.And(
			cond.Compare(cond.CVar(v), cond.Eq, cond.Int(1)),
			cond.Compare(cond.CVar("sv"+strconv.Itoa((i+1)%w)), cond.Ne, cond.Int(1)),
		))
	}
	return cond.Or(disj...), doms
}

// BenchmarkSolverMemo measures a memoised Satisfiable call: one map
// lookup keyed by the formula's interned uint64 id. Before hash-consing
// the memo key was the formula's string key, built on every call.
func BenchmarkSolverMemo(b *testing.B) {
	f, doms := benchFormula(8)
	s := New(doms)
	if sat, err := s.Satisfiable(f); err != nil || !sat {
		b.Fatalf("warm-up Satisfiable = %v, %v", sat, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Satisfiable(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverCold measures the full search on a fresh solver each
// round (empty cache), dominated by residual construction — which now
// re-interns formulas instead of rebuilding them.
func BenchmarkSolverCold(b *testing.B) {
	f, doms := benchFormula(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(doms)
		if _, err := s.Satisfiable(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplify measures Simplify on an already-simplified formula
// — the ctable normalisation path, where the pointer-identity check
// (out != f) detects "no change" without a structural compare.
func BenchmarkSimplify(b *testing.B) {
	f, doms := benchFormula(6)
	s := New(doms)
	if _, err := Simplify(s, f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simplify(s, f); err != nil {
			b.Fatal(err)
		}
	}
}
