package containment

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"faure/internal/cond"
	"faure/internal/faurelog"
	"faure/internal/solver"
)

func subsumes(t *testing.T, target Constraint, known ...Constraint) bool {
	t.Helper()
	res, err := Subsumes(target, known, solver.Domains{}, nil)
	if err != nil {
		t.Fatalf("Subsumes(%s): %v", target.Name, err)
	}
	return res.Contained
}

func TestSelfSubsumption(t *testing.T) {
	c := MustConstraint("C", `panic() :- r(Mkt, CS, p), not fw(Mkt, CS).`)
	if !subsumes(t, c, c) {
		t.Errorf("a constraint should subsume itself")
	}
}

func TestSpecialisationSubsumed(t *testing.T) {
	specific := MustConstraint("S", `panic() :- r(Mkt, CS, p).`)
	general := MustConstraint("G", `panic() :- r(x, y, p).`)
	if !subsumes(t, specific, general) {
		t.Errorf("specific violation should imply general violation")
	}
	if subsumes(t, general, specific) {
		t.Errorf("general violation should not imply specific violation")
	}
}

func TestComparisonSpecialisation(t *testing.T) {
	withComp := MustConstraint("S", `panic() :- r(x), x != A.`)
	general := MustConstraint("G", `panic() :- r(x).`)
	if !subsumes(t, withComp, general) {
		t.Errorf("comparison-restricted violation should be subsumed")
	}
	if subsumes(t, general, withComp) {
		t.Errorf("general violation should not imply the restricted one")
	}
}

func TestJoinFolding(t *testing.T) {
	// A violation requiring a self-loop implies one requiring a path.
	loop := MustConstraint("L", `panic() :- e(x, x).`)
	path := MustConstraint("P", `panic() :- e(x, y), e(y, z).`)
	if !subsumes(t, loop, path) {
		t.Errorf("loop should imply path")
	}
	if subsumes(t, path, loop) {
		t.Errorf("path should not imply loop")
	}
}

func TestNegationSubsumption(t *testing.T) {
	// Violation "r contains x and fw misses it entirely" implies
	// violation "r contains x with no fw for x".
	t1 := MustConstraint("T1", `panic() :- r(Mkt, CS, p), not fw(Mkt, CS).`)
	cs := MustConstraint("CS", `
		panic() :- vs(x, y, p).
		vs(x, y, p) :- r(x, y, p), not fw(x, y).
	`)
	if !subsumes(t, t1, cs) {
		t.Errorf("T1 should be subsumed by the firewall policy")
	}
	// The flat general rule is not subsumed by the specific T1.
	flatGeneral := MustConstraint("G", `panic() :- r(x, y, p), not fw(x, y).`)
	if subsumes(t, flatGeneral, t1) {
		t.Errorf("the general firewall policy should not be subsumed by T1")
	}
}

func TestUnionOfContainersNeeded(t *testing.T) {
	target := MustConstraint("T", `panic() :- r(A, p).`)
	c1 := MustConstraint("C1", `panic() :- r(A, 80).`)
	c2 := MustConstraint("C2", `panic() :- r(x, p).`)
	// c1 alone is too specific; c2 subsumes.
	if subsumes(t, target, c1) {
		t.Errorf("c1 alone should not subsume")
	}
	if !subsumes(t, target, c1, c2) {
		t.Errorf("the union including c2 should subsume")
	}
}

func TestUnknownOnUnconstrainedRelation(t *testing.T) {
	// The container needs s to be non-empty, which the target's
	// violation does not guarantee.
	target := MustConstraint("T", `panic() :- r(x).`)
	container := MustConstraint("C", `panic() :- s(x).`)
	if subsumes(t, target, container) {
		t.Errorf("container over an unconstrained relation must not be claimed")
	}
}

func TestNegationOverUnconstrainedRelation(t *testing.T) {
	// Container: panic when r holds and fw misses it. Target says
	// nothing about fw, so containment must not be claimed (fw might
	// cover everything).
	target := MustConstraint("T", `panic() :- r(x).`)
	container := MustConstraint("C", `panic() :- r(x), not fw(x).`)
	if subsumes(t, target, container) {
		t.Errorf("containment must not be claimed when fw is unconstrained")
	}
}

func TestVacuousRuleContained(t *testing.T) {
	target := MustConstraint("T", `panic() :- r(x), x != A, x = A.`)
	container := MustConstraint("C", `panic() :- s(y).`)
	if !subsumes(t, target, container) {
		t.Errorf("a rule that can never fire is vacuously contained")
	}
}

func TestMultiRuleTarget(t *testing.T) {
	target := MustConstraint("T", `
		panic() :- r(A, p).
		panic() :- r(B, p).
	`)
	general := MustConstraint("G", `panic() :- r(x, p).`)
	if !subsumes(t, target, general) {
		t.Errorf("every rule of the target is a specialisation")
	}
	partial := MustConstraint("P", `panic() :- r(A, p).`)
	if subsumes(t, target, partial) {
		t.Errorf("the B rule is not covered")
	}
}

// TestNonFlatTarget: a target defined through an intermediate
// predicate is flattened before the test; one Flatten cannot unfold —
// a recursive or a negated intermediate — fails with
// ErrOutsideFragment.
func TestNonFlatTarget(t *testing.T) {
	target := MustConstraint("T", `
		panic() :- v(x).
		v(x) :- r(x).
	`)
	container := MustConstraint("C", `panic() :- r(x).`)
	if !subsumes(t, target, container) {
		t.Errorf("the flattened target panic() :- r(x) is contained in the container")
	}
	for _, src := range outsideFragment {
		target := MustConstraint("T", src)
		if _, err := Subsumes(target, []Constraint{container}, solver.Domains{}, nil); !errors.Is(err, ErrOutsideFragment) {
			t.Errorf("target %q: err = %v, want ErrOutsideFragment", src, err)
		}
	}
}

// outsideFragment lists targets Flatten rejects: a recursive and a
// negated intermediate.
var outsideFragment = []string{`
		panic() :- v(x, x).
		v(x, y) :- r(x), r(y).
		v(x, z) :- v(x, y), v(y, z).
	`, `
		panic() :- r(x), not v(x).
		v(x) :- s(x).
	`}

func TestConstraintRequiresPanic(t *testing.T) {
	if _, err := NewConstraint("X", faurelog.MustParse(`v(x) :- r(x).`)); err == nil {
		t.Errorf("constraint without panic should be rejected")
	}
}

// --- soundness property test -----------------------------------------

// genTinyConstraint builds a random flat panic rule over the unary
// relations r and s with the constant domain {A, B}, repaired to be
// safe.
func genTinyConstraint(rnd *rand.Rand, name string) Constraint {
	nLits := 1 + rnd.Intn(3)
	var body []faurelog.Atom
	vars := []string{"x", "y"}
	consts := []string{"A", "B"}
	for i := 0; i < nLits; i++ {
		pred := []string{"r", "s"}[rnd.Intn(2)]
		var arg faurelog.Term
		if rnd.Intn(3) == 0 {
			arg = faurelog.C(cond.Str(consts[rnd.Intn(2)]))
		} else {
			arg = faurelog.V(vars[rnd.Intn(2)])
		}
		body = append(body, faurelog.Atom{Pred: pred, Args: []faurelog.Term{arg}, Neg: rnd.Intn(3) == 0})
	}
	// Repair safety: bind every variable of a negated literal with a
	// positive one.
	bound := map[string]bool{}
	for _, a := range body {
		if !a.Neg {
			for _, v := range a.Vars() {
				bound[v] = true
			}
		}
	}
	for _, a := range body {
		for _, v := range a.Vars() {
			if !bound[v] {
				body = append(body, faurelog.Atom{Pred: "r", Args: []faurelog.Term{faurelog.V(v)}})
				bound[v] = true
			}
		}
	}
	prog := &faurelog.Program{Rules: []faurelog.Rule{{
		Head: faurelog.Atom{Pred: PanicPred},
		Body: body,
	}}}
	if err := prog.Validate(); err != nil {
		panic(fmt.Sprintf("generated unsafe program: %v\n%v", err, prog))
	}
	return Constraint{Name: name, Program: prog}
}

// fires evaluates a constraint on a tiny concrete instance given as
// the contents of r and s (subsets of {A, B}).
func fires(t *testing.T, c Constraint, rSet, sSet []string) bool {
	t.Helper()
	src := ""
	for _, v := range rSet {
		src += "r(" + v + ").\n"
	}
	for _, v := range sSet {
		src += "s(" + v + ").\n"
	}
	db, err := faurelog.ParseDatabase(src)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	// Relations never inserted into must still exist (empty) so that
	// negation sees them; ParseDatabase only creates used tables, and
	// a missing table means the same as an empty one to the engine.
	res, err := faurelog.Eval(c.Program, db, faurelog.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
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

var tinySubsets = [][]string{{}, {"A"}, {"B"}, {"A", "B"}}

// TestSubsumptionSoundness: whenever Subsumes claims containment on
// random tiny constraints, brute-force evaluation over every concrete
// instance must confirm it.
func TestSubsumptionSoundness(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	claims, confirms := 0, 0
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		target := genTinyConstraint(rnd, "T")
		container := genTinyConstraint(rnd, "C")
		res, err := Subsumes(target, []Constraint{container}, solver.Domains{}, nil)
		if err != nil {
			t.Fatalf("seed %d: Subsumes: %v", seed, err)
		}
		if !res.Contained {
			return true
		}
		claims++
		for _, rSet := range tinySubsets {
			for _, sSet := range tinySubsets {
				if fires(t, target, rSet, sSet) && !fires(t, container, rSet, sSet) {
					t.Errorf("seed %d: unsound containment\ntarget:\n%vcontainer:\n%vinstance r=%v s=%v",
						seed, target.Program, container.Program, rSet, sSet)
					return false
				}
			}
		}
		confirms++
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
	if claims == 0 {
		t.Logf("note: no containment claims in this run (still a valid soundness pass)")
	}
	t.Logf("containment claims checked: %d", confirms)
}
