package containment

import (
	"errors"
	"testing"

	"faure/internal/cond"
	"faure/internal/faurelog"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

func change(pred string, vals ...string) rewrite.Change {
	ts := make([]cond.Term, len(vals))
	for i, v := range vals {
		ts[i] = cond.Str(v)
	}
	return rewrite.Change{Pred: pred, Values: ts}
}

func subsumesAfter(t *testing.T, target Constraint, u rewrite.Update, doms solver.Domains, schema *Schema, known ...Constraint) bool {
	t.Helper()
	res, err := SubsumesAfterUpdate(target, u, known, doms, schema)
	if err != nil {
		t.Fatalf("SubsumesAfterUpdate: %v", err)
	}
	return res.Contained
}

// TestAfterUpdateInsertSatisfiesNegation: the target requires
// ¬lb(A, B); inserting lb(A, B) makes the violation unrealisable, so
// the target is vacuously contained in anything.
func TestAfterUpdateInsertSatisfiesNegation(t *testing.T) {
	target := MustConstraint("T", `panic() :- r(A, B), not lb(A, B).`)
	container := MustConstraint("C", `panic() :- s(x).`) // unrelated
	u := rewrite.Update{Inserts: []rewrite.Change{change("lb", "A", "B")}}
	if !subsumesAfter(t, target, u, solver.Domains{}, nil, container) {
		t.Errorf("inserting the negated tuple makes the violation impossible")
	}
	// Without the update the same check must fail.
	res, err := Subsumes(target, []Constraint{container}, solver.Domains{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contained {
		t.Errorf("without the update the target is not contained")
	}
}

// TestAfterUpdateDeleteSatisfiesPositive: the target requires r(A);
// deleting r(A) makes the post-state violation impossible... unless
// the tuple could also be freshly present, which a delete alone rules
// out.
func TestAfterUpdateDeleteSatisfiesPositive(t *testing.T) {
	target := MustConstraint("T", `panic() :- r(A).`)
	container := MustConstraint("C", `panic() :- s(x).`)
	u := rewrite.Update{Deletes: []rewrite.Change{change("r", "A")}}
	if !subsumesAfter(t, target, u, solver.Domains{}, nil, container) {
		t.Errorf("deleting r(A) makes the violation unrealisable post-update")
	}
}

// TestAfterUpdateDeleteRelaxesNegation: deleting lb(A, B) means the
// pre state may have contained it; a container whose violation needs
// ¬lb(A, B) on the PRE state can no longer be concluded.
func TestAfterUpdateDeleteRelaxesNegation(t *testing.T) {
	target := MustConstraint("T", `panic() :- r(A, B), not lb(A, B).`)
	containerPre := MustConstraint("C", `panic() :- r(A, B), not lb(A, B).`)
	// Without an update, self-subsumption holds.
	res, err := Subsumes(target, []Constraint{containerPre}, solver.Domains{}, nil)
	if err != nil || !res.Contained {
		t.Fatalf("self subsumption should hold (%v, %v)", res, err)
	}
	// Deleting lb(A, B): post-violation no longer implies the pre
	// state lacked lb(A, B), so the pre-state container cannot be
	// concluded.
	u := rewrite.Update{Deletes: []rewrite.Change{change("lb", "A", "B")}}
	if subsumesAfter(t, target, u, solver.Domains{}, nil, containerPre) {
		t.Errorf("delete should break the pre-state negation inference")
	}
}

// TestAfterUpdateInsertBreaksPositiveInference: dually, inserting
// r(A) means a post-state violation needing r(A) says nothing about
// the pre state containing it.
func TestAfterUpdateInsertBreaksPositiveInference(t *testing.T) {
	target := MustConstraint("T", `panic() :- r(A).`)
	containerPre := MustConstraint("C", `panic() :- r(A).`)
	u := rewrite.Update{Inserts: []rewrite.Change{change("r", "A")}}
	if subsumesAfter(t, target, u, solver.Domains{}, nil, containerPre) {
		t.Errorf("insert should break the pre-state positive inference")
	}
	// But an untouched relation still transfers.
	target2 := MustConstraint("T2", `panic() :- q(A).`)
	container2 := MustConstraint("C2", `panic() :- q(x).`)
	if !subsumesAfter(t, target2, u, solver.Domains{}, nil, container2) {
		t.Errorf("untouched relations behave as in category (i)")
	}
}

// TestAfterUpdateArityMismatch is the documented error path.
func TestAfterUpdateArityMismatch(t *testing.T) {
	target := MustConstraint("T", `panic() :- lb(x, y).`)
	u := rewrite.Update{Inserts: []rewrite.Change{change("lb", "A")}}
	if _, err := SubsumesAfterUpdate(target, u, []Constraint{target}, solver.Domains{}, nil); err == nil {
		t.Errorf("change arity mismatch should error")
	}
}

// TestAfterUpdateNonFlatTarget: category (ii) flattens a target that
// is not flat as category (i) does, and fails with ErrOutsideFragment
// on the same targets.
func TestAfterUpdateNonFlatTarget(t *testing.T) {
	target := MustConstraint("T", `
		panic() :- v(x).
		v(x) :- r(x).
	`)
	container := MustConstraint("C", `panic() :- r(x).`)
	u := rewrite.Update{Inserts: []rewrite.Change{change("s", "A")}}
	if !subsumesAfter(t, target, u, solver.Domains{}, nil, container) {
		t.Errorf("the flattened target panic() :- r(x) is contained in the container")
	}
	for _, src := range outsideFragment {
		target := MustConstraint("T", src)
		if _, err := SubsumesAfterUpdate(target, u, []Constraint{container}, solver.Domains{}, nil); !errors.Is(err, ErrOutsideFragment) {
			t.Errorf("target %q: err = %v, want ErrOutsideFragment", src, err)
		}
	}
}

// TestInstantiateCondExprKinds covers the exported head-condition
// instantiation over all expression kinds.
func TestInstantiateCondExprKinds(t *testing.T) {
	prog := faurelog.MustParse(`q(x) [($u = 1 && x != A) || !($u = 0)] :- r(x).`)
	ce := prog.Rules[0].HeadCond
	if ce == nil {
		t.Fatalf("head condition missing")
	}
	bind := map[string]cond.Term{"x": cond.Str("B")}
	f, err := InstantiateCondExpr(ce, bind)
	if err != nil {
		t.Fatalf("InstantiateCondExpr: %v", err)
	}
	s := solver.New(solver.Domains{"u": solver.BoolDomain()})
	want := cond.Or(
		cond.Compare(cond.CVar("u"), cond.Eq, cond.Int(1)),
		cond.Compare(cond.CVar("u"), cond.Ne, cond.Int(0)),
	)
	eq, err := s.Equivalent(f, want)
	if err != nil || !eq {
		t.Errorf("instantiated %v, want equivalent to %v (err %v)", f, want, err)
	}
	// Unbound variable errors.
	if _, err := InstantiateCondExpr(ce, nil); err == nil {
		t.Errorf("unbound variable should error")
	}
}

// TestColDomainLookup covers the schema accessor.
func TestColDomainLookup(t *testing.T) {
	var nilSchema *Schema
	if d := nilSchema.ColDomain("r", 0); d.Finite() {
		t.Errorf("nil schema should give unbounded domains")
	}
	s := &Schema{ColDomains: map[string][]solver.Domain{
		"r": {solver.BoolDomain()},
	}}
	if d := s.ColDomain("r", 0); !d.Finite() {
		t.Errorf("typed column lost")
	}
	if d := s.ColDomain("r", 5); d.Finite() {
		t.Errorf("out-of-range column should be unbounded")
	}
	if d := s.ColDomain("nope", 0); d.Finite() {
		t.Errorf("unknown relation should be unbounded")
	}
}
