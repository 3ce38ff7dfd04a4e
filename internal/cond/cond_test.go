package cond

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	s := Str("Mkt")
	i := Int(7000)
	v := CVar("x")
	if !s.IsConst() || s.IsCVar() || s.IsInt() {
		t.Errorf("Str term predicates wrong: %+v", s)
	}
	if !i.IsConst() || !i.IsInt() {
		t.Errorf("Int term predicates wrong: %+v", i)
	}
	if v.IsConst() || !v.IsCVar() {
		t.Errorf("CVar term predicates wrong: %+v", v)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Str("ABC"), "ABC"},
		{Int(-5), "-5"},
		{CVar("x"), "$x"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermCompareOrdering(t *testing.T) {
	// C-vars < strings < ints by kind rank; within kinds by value.
	ordered := []Term{CVar("x"), CVar("y"), Str("A"), Str("B"), Int(1), Int(2)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestOpNegate(t *testing.T) {
	pairs := map[Op]Op{Eq: Ne, Ne: Eq, Lt: Ge, Ge: Lt, Le: Gt, Gt: Le}
	for op, want := range pairs {
		if got := op.Negate(); got != want {
			t.Errorf("%v.Negate() = %v, want %v", op, got, want)
		}
		if got := op.Negate().Negate(); got != op {
			t.Errorf("double negation of %v = %v", op, got)
		}
	}
}

func TestAtomCanonicalSymmetric(t *testing.T) {
	a := NewAtom(CVar("x"), Eq, Int(1))
	b := NewAtom(Int(1), Eq, CVar("x"))
	if a.Key() != b.Key() {
		t.Errorf("symmetric Eq atoms should share a key: %q vs %q", a.Key(), b.Key())
	}
	lt := NewAtom(CVar("x"), Lt, Int(1))
	gt := NewAtom(Int(1), Gt, CVar("x"))
	// Order atoms are not reordered; x < 1 and 1 > x are distinct
	// spellings (the solver treats them equivalently).
	if lt.Key() == gt.Key() {
		t.Errorf("order atoms should keep their orientation")
	}
}

func TestAtomSumCanonicalSorted(t *testing.T) {
	a := NewSumAtom([]Term{CVar("z"), CVar("x"), CVar("y")}, Eq, Int(1))
	b := NewSumAtom([]Term{CVar("x"), CVar("y"), CVar("z")}, Eq, Int(1))
	if a.Key() != b.Key() {
		t.Errorf("sum atoms should sort summands: %q vs %q", a.Key(), b.Key())
	}
}

func TestAtomEvalGround(t *testing.T) {
	cases := []struct {
		atom Atom
		want bool
	}{
		{NewAtom(Int(3), Eq, Int(3)), true},
		{NewAtom(Int(3), Ne, Int(3)), false},
		{NewAtom(Int(2), Lt, Int(3)), true},
		{NewAtom(Int(3), Le, Int(3)), true},
		{NewAtom(Int(4), Gt, Int(3)), true},
		{NewAtom(Int(2), Ge, Int(3)), false},
		{NewAtom(Str("A"), Eq, Str("A")), true},
		{NewAtom(Str("A"), Eq, Str("B")), false},
		{NewAtom(Str("A"), Lt, Str("B")), true},
		{NewSumAtom([]Term{Int(1), Int(1), Int(0)}, Eq, Int(2)), true},
		{NewSumAtom([]Term{Int(1), Int(1)}, Lt, Int(2)), false},
	}
	for _, c := range cases {
		got, err := c.atom.EvalGround()
		if err != nil {
			t.Errorf("EvalGround(%v): %v", c.atom, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalGround(%v) = %v, want %v", c.atom, got, c.want)
		}
	}
}

func TestAtomEvalGroundTypeErrors(t *testing.T) {
	if _, err := NewAtom(Str("A"), Eq, Int(1)).EvalGround(); err != nil {
		t.Errorf("string/int equality should be decidable (false), got error %v", err)
	}
	if v, _ := NewAtom(Str("A"), Eq, Int(1)).EvalGround(); v {
		t.Errorf("A = 1 should be false")
	}
	if _, err := NewAtom(Str("A"), Lt, Int(1)).EvalGround(); err == nil {
		t.Errorf("string/int order comparison should error")
	}
	if _, err := NewSumAtom([]Term{Str("A"), Int(1)}, Eq, Int(1)).EvalGround(); err == nil {
		t.Errorf("sum with string member should error")
	}
}

func TestFormulaConstants(t *testing.T) {
	if !True().IsTrue() || True().IsFalse() {
		t.Errorf("True() misbehaves")
	}
	if !False().IsFalse() || False().IsTrue() {
		t.Errorf("False() misbehaves")
	}
}

func TestAtomFGroundCollapse(t *testing.T) {
	if f := Compare(Int(1), Eq, Int(1)); !f.IsTrue() {
		t.Errorf("1 = 1 should collapse to true, got %v", f)
	}
	if f := Compare(Int(1), Eq, Int(2)); !f.IsFalse() {
		t.Errorf("1 = 2 should collapse to false, got %v", f)
	}
	if f := Compare(CVar("x"), Eq, CVar("x")); !f.IsTrue() {
		t.Errorf("$x = $x should collapse to true, got %v", f)
	}
	if f := Compare(CVar("x"), Lt, CVar("x")); !f.IsFalse() {
		t.Errorf("$x < $x should collapse to false, got %v", f)
	}
}

func TestAndOrIdentitiesAndFlattening(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	y2 := Compare(CVar("y"), Eq, Int(2))
	z3 := Compare(CVar("z"), Eq, Int(3))

	if f := And(); !f.IsTrue() {
		t.Errorf("empty And should be true")
	}
	if f := Or(); !f.IsFalse() {
		t.Errorf("empty Or should be false")
	}
	if f := And(x1, True()); !f.Equal(x1) {
		t.Errorf("And(x, true) should be x, got %v", f)
	}
	if f := And(x1, False()); !f.IsFalse() {
		t.Errorf("And(x, false) should be false")
	}
	if f := Or(x1, True()); !f.IsTrue() {
		t.Errorf("Or(x, true) should be true")
	}
	nested := And(x1, And(y2, z3))
	flat := And(x1, y2, z3)
	if !nested.Equal(flat) {
		t.Errorf("And should flatten: %v vs %v", nested, flat)
	}
	if f := And(x1, x1, x1); !f.Equal(x1) {
		t.Errorf("And should dedup: %v", f)
	}
	// Commutativity through canonical sorting.
	if !And(x1, y2).Equal(And(y2, x1)) {
		t.Errorf("And should be order-insensitive")
	}
	if !Or(x1, y2).Equal(Or(y2, x1)) {
		t.Errorf("Or should be order-insensitive")
	}
}

func TestComplementDetection(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	notX1 := Compare(CVar("x"), Ne, Int(1))
	if f := And(x1, notX1); !f.IsFalse() {
		t.Errorf("x=1 && x!=1 should be false, got %v", f)
	}
	if f := Or(x1, notX1); !f.IsTrue() {
		t.Errorf("x=1 || x!=1 should be true, got %v", f)
	}

	// The complement of late is interned only after formulas holding
	// late exist; the link made then must still be found, also when the
	// pair meets only after flattening.
	late := Compare(CVar("cd_late"), Lt, Int(5))
	other := Compare(CVar("cd_other"), Eq, Int(1))
	conj, disj := And(late, other), Or(late, other)
	notLate := Compare(CVar("cd_late"), Ge, Int(5))
	if f := And(late, notLate); !f.IsFalse() {
		t.Errorf("late complement: And = %v, want false", f)
	}
	if f := Or(notLate, late); !f.IsTrue() {
		t.Errorf("late complement: Or = %v, want true", f)
	}
	if f := And(conj, notLate); !f.IsFalse() {
		t.Errorf("late complement after flattening: And = %v, want false", f)
	}
	if f := Or(disj, notLate); !f.IsTrue() {
		t.Errorf("late complement after flattening: Or = %v, want true", f)
	}
}

// freshRuns makes the atoms of each run of a test distinct from those
// of earlier runs in the process (go test -count), which are still
// interned.
var freshRuns atomic.Int64

// TestComplementDetectionConcurrent: goroutines racing to intern the
// two sides of fresh complementary atom pairs must never see an
// unlinked pair. The goroutines take the pairs in lock step, so the
// two sides of each pair are interned at the same moment. In the first
// pass each goroutine only interns its side, and once all have, every
// goroutine must fold a ∧ ¬a to false and a ∨ ¬a to true (this catches
// two sides that both missed each other). In the second pass each
// goroutine also folds a ∧ ¬a right after interning its side, while
// the other side may be mid-intern (this catches a link made after the
// new atom is published). CI runs it under -race.
func TestComplementDetectionConcurrent(t *testing.T) {
	const goroutines = 4
	const pairs = 8192
	for _, checkEarly := range []bool{false, true} {
		prefix := "cdc" + strconv.FormatInt(freshRuns.Add(1), 10) + "_"
		ops := []Op{Eq, Lt, Le}
		atom := func(i int, neg bool) *Formula {
			op := ops[i%len(ops)]
			if neg {
				op = op.Negate()
			}
			return Compare(CVar(prefix+strconv.Itoa(i)), op, Int(int64(i)))
		}
		// step[i] is the barrier every goroutine passes after pair i.
		step := make([]sync.WaitGroup, pairs)
		for i := range step {
			step[i].Add(goroutines)
		}
		var done sync.WaitGroup
		errs := make(chan string, 3*goroutines*pairs) // at most three per pair and goroutine
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				for i := 0; i < pairs; i++ {
					atom(i, g%2 == 1) // half the goroutines take each side
					if checkEarly {
						if f := And(atom(i, false), atom(i, true)); !f.IsFalse() {
							errs <- fmt.Sprintf("goroutine %d: And of pair %d while interning = %v, want false", g, i, f)
						}
					}
					step[i].Done()
					step[i].Wait()
				}
				for i := 0; i < pairs; i++ {
					a, na := atom(i, false), atom(i, true)
					if f := And(a, na); !f.IsFalse() {
						errs <- fmt.Sprintf("goroutine %d: And(%v, %v) = %v, want false", g, a, na, f)
					}
					if f := Or(na, a); !f.IsTrue() {
						errs <- fmt.Sprintf("goroutine %d: Or(%v, %v) = %v, want true", g, na, a, f)
					}
				}
			}(g)
		}
		done.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestConstructorHitAllocs pins the allocation-free hit path: building
// a formula whose node is already interned allocates nothing.
func TestConstructorHitAllocs(t *testing.T) {
	atoms := benchAtoms(8)
	l, r := Or(atoms[:4]...), Or(atoms[4:]...)
	cases := []struct {
		name string
		f    func() *Formula
	}{
		{"And of 8 atoms", func() *Formula { return And(atoms...) }},
		{"Or of two 4-way Ors", func() *Formula { return Or(l, r) }},
		{"And of 2 atoms", func() *Formula { return And(atoms[0], atoms[1]) }},
	}
	for _, c := range cases {
		want := c.f()
		if n := testing.AllocsPerRun(100, func() {
			if c.f() != want {
				t.Fatalf("%s: rebuilt a different node", c.name)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", c.name, n)
		}
	}
}

func TestNotSimplification(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	if f := Not(True()); !f.IsFalse() {
		t.Errorf("!true should be false")
	}
	if f := Not(False()); !f.IsTrue() {
		t.Errorf("!false should be true")
	}
	n := Not(x1)
	if n.Kind != FAtom || n.Atom.Op != Ne {
		t.Errorf("negated atom should become complementary atom, got %v", n)
	}
	if f := Not(Not(And(x1, Compare(CVar("y"), Eq, Int(2))))); f.Kind != FAnd {
		t.Errorf("double negation should cancel, got %v", f)
	}
}

func TestFoldSum(t *testing.T) {
	// $x + 1 + $y = 2 should fold to $x+$y = 1.
	f := AtomF(NewSumAtom([]Term{CVar("x"), Int(1), CVar("y")}, Eq, Int(2)))
	if f.Kind != FAtom {
		t.Fatalf("expected atom, got %v", f)
	}
	if len(f.Atom.Sum) != 2 || !f.Atom.RHS.Equal(Int(1)) {
		t.Errorf("fold failed: %v", f.Atom)
	}
	// Fully-constant sums collapse.
	g := AtomF(NewSumAtom([]Term{Int(1), Int(1)}, Eq, Int(2)))
	if !g.IsTrue() {
		t.Errorf("1+1=2 should collapse to true, got %v", g)
	}
}

func TestSubstAndGroundEval(t *testing.T) {
	f := And(
		Compare(CVar("x"), Eq, Int(1)),
		Or(Compare(CVar("y"), Eq, Str("A")), Compare(CVar("y"), Eq, Str("B"))),
	)
	g := f.Subst(map[string]Term{"x": Int(1), "y": Str("A")})
	if !g.IsTrue() {
		t.Errorf("substituted formula should be true, got %v", g)
	}
	h := f.Subst(map[string]Term{"x": Int(0)})
	if !h.IsFalse() {
		t.Errorf("x=0 should falsify, got %v", h)
	}
	// Partial substitution keeps the residue.
	r := f.Subst(map[string]Term{"x": Int(1)})
	if r.Kind != FOr {
		t.Errorf("partial substitution should leave the disjunction, got %v", r)
	}
}

func TestSumSubstEvaluates(t *testing.T) {
	f := AtomF(NewSumAtom([]Term{CVar("x"), CVar("y"), CVar("z")}, Eq, Int(1)))
	g := f.Subst(map[string]Term{"x": Int(0), "y": Int(1), "z": Int(0)})
	if !g.IsTrue() {
		t.Errorf("0+1+0=1 should be true, got %v", g)
	}
	h := f.Subst(map[string]Term{"x": Int(1)})
	if h.Kind != FAtom || len(h.Atom.Sum) != 2 || !h.Atom.RHS.Equal(Int(0)) {
		t.Errorf("partial sum should fold to $y+$z = 0, got %v", h)
	}
}

func TestCVarsCollection(t *testing.T) {
	f := And(
		Compare(CVar("b"), Eq, Int(1)),
		Not(Or(Compare(CVar("a"), Eq, Str("X")), AtomF(NewSumAtom([]Term{CVar("c"), CVar("b")}, Lt, Int(2))))),
	)
	got := f.CVars()
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

func TestAssignAtom(t *testing.T) {
	a := NewAtom(CVar("x"), Eq, Int(1))
	b := NewAtom(CVar("y"), Eq, Int(2))
	f := Or(AtomF(a), AtomF(b))
	if g := f.AssignAtom(a, true); !g.IsTrue() {
		t.Errorf("assigning a=true in a||b should give true, got %v", g)
	}
	if g := f.AssignAtom(a, false); !g.Equal(AtomF(b)) {
		t.Errorf("assigning a=false in a||b should give b, got %v", g)
	}
}

func TestFormulaStringRoundTrippable(t *testing.T) {
	f := And(
		Compare(CVar("x"), Eq, Str("Mkt")),
		Or(Compare(CVar("p"), Ne, Int(80)), Compare(CVar("p"), Ne, Int(344))),
	)
	s := f.String()
	for _, frag := range []string{"$x = Mkt", "||", "&&"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestConjuncts(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	y2 := Compare(CVar("y"), Eq, Int(2))
	if got := And(x1, y2).Conjuncts(); len(got) != 2 {
		t.Errorf("Conjuncts of binary And = %d elements", len(got))
	}
	if got := x1.Conjuncts(); len(got) != 1 || !got[0].Equal(x1) {
		t.Errorf("Conjuncts of atom should be itself")
	}
	if got := True().Conjuncts(); len(got) != 0 {
		t.Errorf("Conjuncts of true should be empty")
	}
}

func TestEvalGroundFormula(t *testing.T) {
	f := And(Compare(Int(1), Lt, Int(2)), Not(Compare(Str("A"), Eq, Str("B"))))
	v, err := f.EvalGround()
	if err != nil || !v {
		t.Errorf("ground eval = %v, %v", v, err)
	}
}

func TestAtomsCollection(t *testing.T) {
	a1 := NewAtom(CVar("x"), Eq, Int(1))
	a2 := NewAtom(CVar("y"), Ne, Str("A"))
	f := Or(And(AtomF(a1), AtomF(a2)), AtomF(a1))
	atoms := f.Atoms()
	if len(atoms) != 2 {
		t.Fatalf("Atoms = %v, want 2 distinct", atoms)
	}
	// Sorted by key and duplicate-free.
	if atoms[0].Key() >= atoms[1].Key() {
		t.Errorf("atoms not sorted: %v", atoms)
	}
}

func TestEvalGroundAllKinds(t *testing.T) {
	cases := []struct {
		f    *Formula
		want bool
	}{
		{True(), true},
		{False(), false},
		{And(Compare(Int(1), Lt, Int(2)), Compare(Int(2), Lt, Int(3))), true},
		{And(Compare(Int(1), Lt, Int(2)), Compare(Int(3), Lt, Int(2))), false},
		{Or(Compare(Int(3), Lt, Int(2)), Compare(Int(1), Lt, Int(2))), true},
		{Or(Compare(Int(3), Lt, Int(2)), Compare(Int(4), Lt, Int(2))), false},
		{Not(Compare(Int(3), Lt, Int(2))), true},
	}
	for i, c := range cases {
		got, err := c.f.EvalGround()
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got != c.want {
			t.Errorf("case %d: EvalGround(%v) = %v, want %v", i, c.f, got, c.want)
		}
	}
	// Error propagation: a type-mismatched ground atom surfaces its
	// error (And/Or constructors fold true/false identities away, so
	// the bad atom is what remains).
	bad := AtomF(Atom{Sum: []Term{Str("A")}, Op: Lt, RHS: Int(1)})
	if bad.Kind != FAtom {
		t.Fatalf("expected the mixed-type atom to stay symbolic, got %v", bad)
	}
	if _, err := bad.EvalGround(); err == nil {
		t.Errorf("type error should surface from EvalGround")
	}
	if _, err := Not(bad).EvalGround(); err == nil {
		t.Errorf("type error should propagate through Not")
	}
}

func TestTermStringQuoting(t *testing.T) {
	cases := map[string]string{
		"Mkt":        "Mkt",      // bare constant identifier
		"R&D":        "R&D",      // ampersand allowed in identifiers
		"1.2.3.4":    "1.2.3.4",  // dotted literal stays bare
		"10.0.0.0":   "10.0.0.0", // multi-dot
		"lower":      "'lower'",  // would re-lex as a variable
		"_x":         "'_x'",     // underscore start = variable
		"has space":  "'has space'",
		"123":        "'123'",   // would re-lex as an integer
		"1.2.":       "'1.2.'",  // trailing dot is not a dotted literal
		".1.2":       "'.1.2'",  // leading dot
		"1..2":       "'1..2'",  // double dot
		"A-B":        "'A-B'",   // dash not an identifier char
		"":           "''",      // empty string
		`it's`:       `'it\'s'`, // quote escaping
		`back\slash`: `'back\\slash'`,
	}
	for in, want := range cases {
		if got := Str(in).String(); got != want {
			t.Errorf("Str(%q).String() = %q, want %q", in, got, want)
		}
	}
}
