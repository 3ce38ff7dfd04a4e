package verify

import (
	"strings"
	"testing"

	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/network"
	"faure/internal/obs"
	"faure/internal/rewrite"
)

func enterpriseVerifier() *Verifier {
	return &Verifier{Doms: network.EnterpriseDomains(), Schema: network.EnterpriseSchema()}
}

// TestPaperCategoryIT1 reproduces §5's first claim: {C_lb, C_s}
// subsume T1 (q9 is a special case of q17), so the category (i) test
// proves T1 without seeing the update or the state.
func TestPaperCategoryIT1(t *testing.T) {
	v := enterpriseVerifier()
	rep, err := v.CategoryI(network.T1(), []containment.Constraint{network.Clb(), network.Cs()})
	if err != nil {
		t.Fatalf("CategoryI: %v", err)
	}
	if rep.Verdict != Holds {
		t.Errorf("T1 should be subsumed by {C_lb, C_s}: got %v (%s)", rep.Verdict, rep.Reason)
	}
}

// TestPaperCategoryIT2 reproduces the second claim: {C_lb, C_s} do NOT
// subsume T2, so the category (i) test answers Unknown.
func TestPaperCategoryIT2(t *testing.T) {
	v := enterpriseVerifier()
	rep, err := v.CategoryI(network.T2(), []containment.Constraint{network.Clb(), network.Cs()})
	if err != nil {
		t.Fatalf("CategoryI: %v", err)
	}
	if rep.Verdict != Unknown {
		t.Errorf("T2 should not be decided by category (i): got %v (%s)", rep.Verdict, rep.Reason)
	}
}

// TestPaperCategoryIIT2 reproduces the third claim: with the Listing 4
// update also known, the category (ii) test completes verification of
// T2.
func TestPaperCategoryIIT2(t *testing.T) {
	v := enterpriseVerifier()
	rep, err := v.CategoryII(network.T2(), network.ListingFourUpdate(), []containment.Constraint{network.Clb(), network.Cs()})
	if err != nil {
		t.Fatalf("CategoryII: %v", err)
	}
	if rep.Verdict != Holds {
		t.Errorf("T2 should be verified by category (ii): got %v (%s)", rep.Verdict, rep.Reason)
	}
}

// TestCategoryIIT1StillHolds: the update does not touch fw or r, so T1
// remains subsumed.
func TestCategoryIIT1StillHolds(t *testing.T) {
	v := enterpriseVerifier()
	rep, err := v.CategoryII(network.T1(), network.ListingFourUpdate(), []containment.Constraint{network.Clb(), network.Cs()})
	if err != nil {
		t.Fatalf("CategoryII: %v", err)
	}
	if rep.Verdict != Holds {
		t.Errorf("T1 should still hold under the update: got %v (%s)", rep.Verdict, rep.Reason)
	}
}

// TestCategoryIIRequiresTheRightUpdate: deleting R&D's load balancing
// (instead of Mkt's) breaks T2, and the test must not claim Holds.
func TestCategoryIIRequiresTheRightUpdate(t *testing.T) {
	v := enterpriseVerifier()
	bad := rewrite.Update{
		Deletes: []rewrite.Change{{Pred: "lb", Values: []cond.Term{cond.Str(network.RnD), cond.Str(network.GS)}}},
	}
	rep, err := v.CategoryII(network.T2(), bad, []containment.Constraint{network.Clb(), network.Cs()})
	if err != nil {
		t.Fatalf("CategoryII: %v", err)
	}
	if rep.Verdict == Holds {
		t.Errorf("deleting lb(R&D, GS) must not verify T2, got %s", rep.Reason)
	}
}

// TestDirectEvaluation: on the concrete pre-update state every
// constraint holds; after breaking it, Direct reports the violation.
func TestDirectEvaluation(t *testing.T) {
	v := enterpriseVerifier()
	db := network.EnterpriseState(false)
	for _, c := range []containment.Constraint{network.T1(), network.T2(), network.Clb(), network.Cs()} {
		rep, err := v.Direct(c, db)
		if err != nil {
			t.Fatalf("Direct(%s): %v", c.Name, err)
		}
		if rep.Verdict != Holds {
			t.Errorf("%s should hold on the baseline state: %v (%s)", c.Name, rep.Verdict, rep.Reason)
		}
	}
	// Break T1: allow Mkt→CS traffic with no firewall.
	broken := db.Clone()
	broken.Table("fw").Tuples = nil
	rep, err := v.Direct(network.T1(), broken)
	if err != nil {
		t.Fatalf("Direct: %v", err)
	}
	if rep.Verdict != Violated {
		t.Errorf("T1 should be violated without firewalls: %v (%s)", rep.Verdict, rep.Reason)
	}
}

// TestDirectConditional: with a partially-unknown row, the verdict can
// depend on the c-variables.
func TestDirectConditional(t *testing.T) {
	v := enterpriseVerifier()
	db := ctable.NewDatabase()
	for name, d := range network.EnterpriseDomains() {
		db.DeclareVar(name, d)
	}
	r := ctable.NewTable("r", "subnet", "server", "port")
	r.MustInsert(nil, cond.CVar("x"), cond.Str(network.CS), cond.Int(7000))
	db.AddTable(r)
	fw := ctable.NewTable("fw", "subnet", "server")
	fw.MustInsert(nil, cond.Str(network.RnD), cond.Str(network.CS))
	db.AddTable(fw)

	rep, err := v.Direct(network.T1(), db)
	if err != nil {
		t.Fatalf("Direct: %v", err)
	}
	if rep.Verdict != Conditional {
		t.Fatalf("T1 should be conditional on $x: %v (%s)", rep.Verdict, rep.Reason)
	}
	// Violated exactly when $x = Mkt (then r(Mkt, CS, 7000) with no
	// fw(Mkt, CS)).
	s := newSolver(db)
	want := cond.Compare(cond.CVar("x"), cond.Eq, cond.Str(network.Mkt))
	eq, err := s.Equivalent(rep.ViolationCond, want)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("violation condition %v should be equivalent to %v", rep.ViolationCond, want)
	}
}

// TestUpdateRewriteAgreesWithDirectApplication: Listing 4's C'
// evaluated on the pre state must agree with C on the post state, on
// all four §5 constraints and several updates.
func TestUpdateRewriteAgreesWithDirectApplication(t *testing.T) {
	v := enterpriseVerifier()
	updates := []rewrite.Update{
		network.ListingFourUpdate(),
		{Deletes: []rewrite.Change{{Pred: "lb", Values: []cond.Term{cond.Str(network.RnD), cond.Str(network.GS)}}}},
		{Inserts: []rewrite.Change{{Pred: "r", Values: []cond.Term{cond.Str(network.Mkt), cond.Str(network.CS), cond.Int(80)}}}},
		{Deletes: []rewrite.Change{{Pred: "fw", Values: []cond.Term{cond.Str(network.Mkt), cond.Str(network.CS)}}}},
	}
	for ui, u := range updates {
		for _, c := range []containment.Constraint{network.T1(), network.T2(), network.Clb(), network.Cs()} {
			db := network.EnterpriseState(false)
			direct, err := v.DirectAfterUpdate(c, u, db)
			if err != nil {
				t.Fatalf("update %d, %s: DirectAfterUpdate: %v", ui, c.Name, err)
			}
			viaRewrite, err := v.DirectViaRewrite(c, u, db)
			if err != nil {
				t.Fatalf("update %d, %s: DirectViaRewrite: %v", ui, c.Name, err)
			}
			if direct.Verdict != viaRewrite.Verdict {
				t.Errorf("update %d, %s: direct=%v rewrite=%v", ui, c.Name, direct.Verdict, viaRewrite.Verdict)
			}
		}
	}
}

// TestCategoryIIAgreesWithGroundTruth: whenever category (ii) says
// Holds, applying the update to a state satisfying the knowns must
// leave the target satisfied (soundness on the concrete baseline).
func TestCategoryIISoundOnBaseline(t *testing.T) {
	v := enterpriseVerifier()
	known := []containment.Constraint{network.Clb(), network.Cs()}
	u := network.ListingFourUpdate()
	for _, target := range []containment.Constraint{network.T1(), network.T2()} {
		rep, err := v.CategoryII(target, u, known)
		if err != nil {
			t.Fatalf("CategoryII(%s): %v", target.Name, err)
		}
		if rep.Verdict != Holds {
			continue
		}
		db := network.EnterpriseState(false)
		// Check the baseline satisfies the knowns pre-update.
		for _, k := range known {
			kr, err := v.Direct(k, db)
			if err != nil {
				t.Fatal(err)
			}
			if kr.Verdict != Holds {
				t.Fatalf("baseline violates %s: %s", k.Name, kr.Reason)
			}
		}
		post, err := v.DirectAfterUpdate(target, u, db)
		if err != nil {
			t.Fatal(err)
		}
		if post.Verdict != Holds {
			t.Errorf("category (ii) said %s holds, but the post-update baseline violates it: %s", target.Name, post.Reason)
		}
	}
}

// TestLadder exercises the escalation order.
func TestLadder(t *testing.T) {
	v := enterpriseVerifier()
	known := []containment.Constraint{network.Clb(), network.Cs()}
	u := network.ListingFourUpdate()
	db := network.EnterpriseState(false)

	rep, level, err := v.Ladder(network.T1(), known, &u, db)
	if err != nil {
		t.Fatal(err)
	}
	if level != "category-i" || rep.Verdict != Holds {
		t.Errorf("T1 should be decided at category (i): %s, %v", level, rep.Verdict)
	}
	rep, level, err = v.Ladder(network.T2(), known, &u, db)
	if err != nil {
		t.Fatal(err)
	}
	if level != "category-ii" || rep.Verdict != Holds {
		t.Errorf("T2 should be decided at category (ii): %s, %v", level, rep.Verdict)
	}
	// Without the update, T2 falls through to direct evaluation.
	rep, level, err = v.Ladder(network.T2(), known, nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if level != "direct" || rep.Verdict != Holds {
		t.Errorf("T2 without update should be decided directly: %s, %v", level, rep.Verdict)
	}
	// With nothing beyond the constraints, T2 stays unknown.
	rep, level, err = v.Ladder(network.T2(), known, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if level != "exhausted" || rep.Verdict != Unknown {
		t.Errorf("T2 with constraints only should be unknown: %s, %v", level, rep.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{Holds: "holds", Violated: "violated", Conditional: "conditional", Unknown: "unknown"}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

// TestCategoryIFlattensTargets: constraints defined through helpers
// (like C_lb) can be verification targets directly.
func TestCategoryIFlattensTargets(t *testing.T) {
	v := enterpriseVerifier()
	// C_lb as the target, with itself among the knowns: trivially
	// holds (self subsumption through flattening).
	rep, err := v.CategoryI(network.Clb(), []containment.Constraint{network.Clb(), network.Cs()})
	if err != nil {
		t.Fatalf("CategoryI: %v", err)
	}
	if rep.Verdict != Holds {
		t.Errorf("C_lb should be subsumed when it is itself known: %v (%s)", rep.Verdict, rep.Reason)
	}
	// C_lb is not subsumed by C_s alone (C_s says nothing about load
	// balancers or the Mkt/R&D restriction).
	rep, err = v.CategoryI(network.Clb(), []containment.Constraint{network.Cs()})
	if err != nil {
		t.Fatalf("CategoryI: %v", err)
	}
	if rep.Verdict != Unknown {
		t.Errorf("C_lb should not be decided by C_s alone: %v (%s)", rep.Verdict, rep.Reason)
	}
}

// TestExplainViolations: violated constraints yield derivation trees.
func TestExplainViolations(t *testing.T) {
	v := enterpriseVerifier()
	db := network.EnterpriseState(false)
	db.Table("fw").Tuples = nil // break T1
	exps, err := v.ExplainViolations(network.T1(), db)
	if err != nil {
		t.Fatalf("ExplainViolations: %v", err)
	}
	if len(exps) == 0 {
		t.Fatalf("expected violation derivations")
	}
	out := exps[0].String()
	for _, frag := range []string{"panic()", "r(Mkt, CS", "not fw(Mkt, CS)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("explanation missing %q:\n%s", frag, out)
		}
	}
	// Holding constraints yield none.
	ok := network.EnterpriseState(false)
	exps, err = v.ExplainViolations(network.T1(), ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 0 {
		t.Errorf("holding constraint should have no violation derivations")
	}
}

// TestLadderRecursiveTargetFallsThrough: a recursive constraint cannot
// be decided by subsumption (Unknown at categories i/ii) but is still
// decided directly when the state is available.
func TestLadderRecursiveTargetFallsThrough(t *testing.T) {
	target := containment.MustConstraint("loop", `
		panic() :- reach(1, 1).
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`)
	known := []containment.Constraint{network.Cs()}
	db, err := faurelog.ParseDatabase(`link(1, 2). link(2, 3).`)
	if err != nil {
		t.Fatal(err)
	}
	v := &Verifier{Doms: db.Doms}
	rep, level, err := v.Ladder(target, known, nil, db)
	if err != nil {
		t.Fatalf("Ladder: %v", err)
	}
	if level != "direct" || rep.Verdict != Holds {
		t.Errorf("recursive target should be decided directly: %v at %s (%s)", rep.Verdict, level, rep.Reason)
	}
	// With a cycle, directly violated.
	db2, err := faurelog.ParseDatabase(`link(1, 2). link(2, 1).`)
	if err != nil {
		t.Fatal(err)
	}
	rep, level, err = v.Ladder(target, known, nil, db2)
	if err != nil {
		t.Fatal(err)
	}
	if level != "direct" || rep.Verdict != Violated {
		t.Errorf("cyclic state should violate: %v at %s", rep.Verdict, level)
	}
	// With an update, both categories count the target as outside the
	// fragment before direct evaluation of the post-update state decides.
	reg := obs.NewRegistry()
	v.Obs = reg
	u := rewrite.Update{Inserts: []rewrite.Change{{Pred: "link", Values: []cond.Term{cond.Int(3), cond.Int(4)}}}}
	rep, level, err = v.Ladder(target, known, &u, db)
	if err != nil {
		t.Fatal(err)
	}
	if level != "direct" || rep.Verdict != Holds {
		t.Errorf("updated acyclic state should hold directly: %v at %s (%s)", rep.Verdict, level, rep.Reason)
	}
	c := reg.Snapshot().Counters
	for key, want := range map[string]int64{
		"verify.unknown_reason.outside-fragment": 2,
		"verify.category_i.runs":                 1,
		"verify.category_ii.runs":                1,
		"verify.ladder.decided_at.direct":        1,
	} {
		if c[key] != want {
			t.Errorf("counter %s = %d, want %d", key, c[key], want)
		}
	}
}
