package faure_test

import (
	"context"
	"testing"
	"time"

	"faure"
)

// TestAcceptanceRingGovernance is the PR's acceptance scenario: an
// adversarial recursive workload (protected ring, where reachability
// conditions multiply around the cycle) under a canceled context and
// under a 400-solver-step budget must come back truncated, with a
// structured reason, in bounded time — and the very same workload with
// no budget must still decide. Budgets are opt-in and
// decision-preserving; they only convert "would not finish" into
// "partial result + reason".
func TestAcceptanceRingGovernance(t *testing.T) {
	topo := faure.RingTopology(6)
	db := topo.ForwardingTable("F0")
	prog := faure.ReachabilityProgram()

	// Control: no budget, the run decides.
	full, err := faure.Eval(prog, db, faure.Options{})
	if err != nil {
		t.Fatalf("unbudgeted Eval: %v", err)
	}
	if full.Truncated != nil {
		t.Fatalf("unbudgeted Eval reported truncation: %v", full.Truncated)
	}
	if full.DB.Table("reach").Len() == 0 {
		t.Fatal("unbudgeted Eval derived no reachability")
	}

	t.Run("canceled-context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		res, err := faure.Eval(prog, db, faure.WithContext(faure.Options{}, ctx))
		if err != nil {
			t.Fatalf("Eval under canceled context errored: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("canceled run took %v", elapsed)
		}
		if res.Truncated == nil || res.Truncated.Kind != faure.BudgetCanceled {
			t.Fatalf("Truncated = %v, want a cancellation record", res.Truncated)
		}
		if res.Truncated.Error() == "" || res.Truncated.Where == "" {
			t.Fatalf("cancellation reason not structured: %v", res.Truncated)
		}
	})

	t.Run("solver-step-budget", func(t *testing.T) {
		// The incremental solver (certificate replay, fd fast path and
		// absorption's set test, one step per decision) finishes this
		// workload in 2810 steps (628 before the set test; pure search
		// needed more than 10k), so a 400-step budget trips it.
		bud := faure.NewBudget(nil, faure.Budget{SolverSteps: 400})
		start := time.Now()
		res, err := faure.Eval(prog, db, faure.WithBudget(faure.Options{}, bud))
		if err != nil {
			t.Fatalf("Eval under solver budget errored: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("budgeted run took %v", elapsed)
		}
		if res.Truncated == nil || res.Truncated.Kind != faure.BudgetSolverSteps {
			t.Fatalf("Truncated = %v, want a solver-step record", res.Truncated)
		}
		if res.Truncated.Where == "" {
			t.Fatal("solver-step reason has no location")
		}
		if got, want := res.DB.Table("reach").Len(), full.DB.Table("reach").Len(); got >= want {
			t.Fatalf("truncated run derived %d reach tuples, not fewer than the full run's %d", got, want)
		}
	})
}

// TestAcceptanceDeadlineBoundsRunaway: ring-13 is past the knee of the
// ring workload's growth, and its 8192 link assignments are past the
// absorption set test's world, so absorption runs through the solver.
// Unbudgeted it did not finish within a minute on a 2-vCPU KVM guest
// (a 60-second deadline stopped it with 49 373 reach tuples and 944 MB
// peak RSS; ring-12, inside the world, took 15–29 s in full), which
// is exactly the runaway a wall-clock budget exists for. A 1-second
// deadline must stop it with a structured reason well inside the test
// timeout.
func TestAcceptanceDeadlineBoundsRunaway(t *testing.T) {
	topo := faure.RingTopology(13)
	db := topo.ForwardingTable("F0")
	prog := faure.ReachabilityProgram()

	bud := faure.NewBudget(nil, faure.Budget{Timeout: time.Second})
	start := time.Now()
	res, err := faure.Eval(prog, db, faure.WithBudget(faure.Options{}, bud))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Eval under 1s deadline errored: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("1s-deadline run took %v; the budget did not bound it", elapsed)
	}
	if res.Truncated == nil || res.Truncated.Kind != faure.BudgetDeadline {
		t.Fatalf("Truncated = %v, want a deadline record", res.Truncated)
	}
	if res.Truncated.Where == "" {
		t.Fatal("deadline reason has no location")
	}
}

// TestAcceptanceVerifierUnknownByBudget: through the façade, a
// budget-starved Verifier reports Unknown with Report.Exhausted set
// and the structured reason — distinguishable from the
// Unknown-by-information the ladder's "exhausted" level produces —
// while the unbudgeted ladder still decides the same question.
func TestAcceptanceVerifierUnknownByBudget(t *testing.T) {
	known := []faure.Constraint{faure.Clb(), faure.Cs()}
	update := faure.ListingFourUpdate()
	state := faure.EnterpriseState(false)

	free := &faure.Verifier{Doms: faure.EnterpriseDomains(), Schema: faure.EnterpriseSchema()}
	rep, _, err := free.Ladder(faure.T2(), known, &update, state)
	if err != nil {
		t.Fatalf("unbudgeted Ladder: %v", err)
	}
	if rep.Verdict != faure.Holds || rep.Exhausted != nil {
		t.Fatalf("unbudgeted Ladder: %v / %v, want holds", rep.Verdict, rep.Exhausted)
	}

	bud := faure.NewBudget(nil, faure.Budget{SolverSteps: 10})
	v := &faure.Verifier{Doms: faure.EnterpriseDomains(), Schema: faure.EnterpriseSchema(), Budget: bud}
	rep, _, err = v.Ladder(faure.T2(), known, &update, state)
	if err != nil {
		t.Fatalf("budgeted Ladder: %v", err)
	}
	if rep.Verdict != faure.Unknown {
		t.Fatalf("verdict = %v, want unknown", rep.Verdict)
	}
	if rep.Exhausted == nil || rep.Exhausted.Kind != faure.BudgetSolverSteps {
		t.Fatalf("Exhausted = %v, want solver-steps", rep.Exhausted)
	}
	if rep.Reason == "" {
		t.Fatal("budget Unknown carries no reason")
	}
}

// TestAcceptanceSQLBackendTruncates: the §6 SQL pipeline observes the
// same budget contract — a trip stops the script, the stats carry the
// record, and no error is raised.
func TestAcceptanceSQLBackendTruncates(t *testing.T) {
	db, err := faure.ParseDatabase(`
		var $x in {0, 1}.
		fwd(F0, 1, 2)[$x = 1].
		fwd(F0, 1, 3)[$x = 0].
		fwd(F0, 2, 4).
		fwd(F0, 3, 4).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := faure.Parse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	if err != nil {
		t.Fatal(err)
	}

	_, stats, err := faure.EvalSQL(prog, db, faure.SQLOptions{})
	if err != nil || stats.Truncated != nil {
		t.Fatalf("unbudgeted EvalSQL: err=%v truncated=%v", err, stats.Truncated)
	}

	bud := faure.NewBudget(nil, faure.Budget{Timeout: time.Nanosecond})
	_, stats, err = faure.EvalSQL(prog, db, faure.SQLOptions{Budget: bud})
	if err != nil {
		t.Fatalf("budgeted EvalSQL errored: %v", err)
	}
	if stats == nil || stats.Truncated == nil {
		t.Fatal("budgeted EvalSQL did not set SQLStats.Truncated")
	}
	if stats.Truncated.Kind != faure.BudgetDeadline {
		t.Fatalf("Truncated.Kind = %q, want deadline", stats.Truncated.Kind)
	}
}

// TestAcceptanceTable4Truncates: the Table 4 harness propagates a
// budget trip as a partial sweep — completed rows retained, Truncated
// set — so a bench run against a wall-clock cap degrades instead of
// hanging.
func TestAcceptanceTable4Truncates(t *testing.T) {
	bud := faure.NewBudget(nil, faure.Budget{Timeout: time.Nanosecond})
	res, err := faure.RunTable4(faure.Table4Config{
		Prefixes: 50,
		Seed:     1,
		Options:  faure.WithBudget(faure.Options{}, bud),
	})
	if err != nil {
		t.Fatalf("budgeted RunTable4 errored: %v", err)
	}
	if res.Truncated == nil {
		t.Fatal("budgeted RunTable4 did not set Truncated")
	}
	if res.Truncated.Kind != faure.BudgetDeadline {
		t.Fatalf("Truncated.Kind = %q, want deadline", res.Truncated.Kind)
	}
}
