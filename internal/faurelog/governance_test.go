package faurelog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
)

// ringWorkload builds a protected ring of n routers as text: every
// router i forwards to i+1 while its link is up ($li = 1) and detours
// to i+2 on failure. The recursion through reach multiplies conditions,
// giving the solver and the tuple/condition budgets real work.
func ringWorkload(t *testing.T, n int) (*Program, *ctable.Database) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "var $l%d in {0, 1}.\n", i)
	}
	for i := 0; i < n; i++ {
		next := (i+1)%n + 1
		detour := (i+2)%n + 1
		fmt.Fprintf(&sb, "fwd(F0, %d, %d)[$l%d = 1].\n", i+1, next, i)
		fmt.Fprintf(&sb, "fwd(F0, %d, %d)[$l%d = 0].\n", i+1, detour, i)
	}
	db, err := ParseDatabase(sb.String())
	if err != nil {
		t.Fatalf("ring database: %v", err)
	}
	prog, err := Parse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	if err != nil {
		t.Fatalf("ring program: %v", err)
	}
	return prog, db
}

// TestEvalBudgetKinds drives each budget kind over the same recursive
// ring workload. Tripping is a degradation, never an error: Eval
// returns a nil error, a usable partial database, and a populated
// Truncated record naming the resource and where it ran out. The
// unbudgeted control run must still decide (Truncated == nil) — the
// governance layer is opt-in and decision-preserving.
func TestEvalBudgetKinds(t *testing.T) {
	prog, db := ringWorkload(t, 8)

	full, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatalf("unbudgeted Eval: %v", err)
	}
	if full.Truncated != nil {
		t.Fatalf("unbudgeted Eval reported truncation: %v", full.Truncated)
	}
	fullReach := full.DB.Table("reach").Len()
	if fullReach == 0 {
		t.Fatal("unbudgeted Eval derived nothing; workload is broken")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		opts Options
		kind budget.Kind
	}{
		{"canceled-context", Options{Budget: budget.New(canceled, budget.Limits{})}, budget.Canceled},
		{"deadline", Options{Budget: budget.New(nil, budget.Limits{Timeout: time.Nanosecond})}, budget.Deadline},
		{"solver-steps", Options{Budget: budget.New(nil, budget.Limits{SolverSteps: 1})}, budget.SolverSteps},
		{"tuples", Options{Budget: budget.New(nil, budget.Limits{Tuples: 4})}, budget.Tuples},
		{"cond-size", Options{Budget: budget.New(nil, budget.Limits{CondSize: 1})}, budget.CondSize},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			res, err := Eval(prog, db, tc.opts)
			if err != nil {
				t.Fatalf("budgeted Eval returned a hard error: %v", err)
			}
			if res.Truncated == nil {
				t.Fatal("budgeted Eval did not report truncation")
			}
			if res.Truncated.Kind != tc.kind {
				t.Fatalf("Truncated.Kind = %q, want %q", res.Truncated.Kind, tc.kind)
			}
			if res.Truncated.Where == "" {
				t.Fatal("Truncated.Where is empty; reasons must be structured")
			}
			if res.Truncated.Error() == "" {
				t.Fatal("Truncated.Error() is empty")
			}
			if res.DB == nil {
				t.Fatal("truncated result has no partial database")
			}
			if got := res.DB.Table("reach").Len(); got > fullReach {
				t.Fatalf("partial result has %d reach tuples, more than the full run's %d", got, fullReach)
			}
		})
	}
}

// TestEvalSolverBudgetWhereAnnotated: a trip noticed deep inside the
// solver only knows "solver"; the engine must enrich the location to
// the stratum/round it was working on, so the verifier's reason can
// say "solver step budget exhausted at stratum N round M".
func TestEvalSolverBudgetWhereAnnotated(t *testing.T) {
	prog, db := ringWorkload(t, 8)
	res, err := Eval(prog, db, Options{Budget: budget.New(nil, budget.Limits{SolverSteps: 50})})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Truncated == nil {
		t.Fatal("solver-step budget of 50 did not trip on the ring workload")
	}
	if !strings.Contains(res.Truncated.Where, "stratum") {
		t.Fatalf("Truncated.Where = %q, want a stratum-annotated location", res.Truncated.Where)
	}
}

// TestEvalDeadlineBounded: a short wall-clock deadline must bound the
// run in real time even on a workload that would otherwise run much
// longer. The margin is generous (race-detector CI), but far below the
// unbounded run's cost at this ring size.
func TestEvalDeadlineBounded(t *testing.T) {
	prog, db := ringWorkload(t, 12)
	start := time.Now()
	res, err := Eval(prog, db, Options{Budget: budget.New(nil, budget.Limits{Timeout: 100 * time.Millisecond})})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadline-budgeted Eval took %v; the deadline did not bound the run", elapsed)
	}
	// A 100ms deadline may or may not trip depending on machine speed;
	// if it tripped, the record must be coherent.
	if res.Truncated != nil && res.Truncated.Kind != budget.Deadline && res.Truncated.Kind != budget.Canceled {
		t.Fatalf("Truncated.Kind = %q, want deadline", res.Truncated.Kind)
	}
}

// TestEvalIncrementHonorsBudget: incremental evaluation goes through
// the same governed engine, so budgets and partial-result semantics
// carry over unchanged.
func TestEvalIncrementHonorsBudget(t *testing.T) {
	prog, db := ringWorkload(t, 6)
	full, err := Eval(prog, db, Options{})
	if err != nil || full.Truncated != nil {
		t.Fatalf("base Eval: err=%v truncated=%v", err, full.Truncated)
	}

	added := map[string][]ctable.Tuple{
		"fwd": {ctable.NewTuple([]cond.Term{cond.Str("F0"), cond.Int(1), cond.Int(4)}, nil)},
	}

	inc, err := EvalIncrement(prog, full.DB, added, Options{})
	if err != nil {
		t.Fatalf("unbudgeted EvalIncrement: %v", err)
	}
	if inc.Truncated != nil {
		t.Fatalf("unbudgeted EvalIncrement reported truncation: %v", inc.Truncated)
	}

	res, err := EvalIncrement(prog, full.DB, added, Options{Budget: budget.New(nil, budget.Limits{SolverSteps: 1})})
	if err != nil {
		t.Fatalf("budgeted EvalIncrement returned a hard error: %v", err)
	}
	if res.Truncated == nil {
		t.Fatal("budgeted EvalIncrement did not report truncation")
	}
	if res.Truncated.Kind != budget.SolverSteps {
		t.Fatalf("Truncated.Kind = %q, want %q", res.Truncated.Kind, budget.SolverSteps)
	}
}

// TestEvalFaultInjectedCancellation: the deterministic fault harness
// can fire a context cancellation at an exact iteration checkpoint;
// the engine must degrade to a truncated result exactly as if the
// caller had canceled.
func TestEvalFaultInjectedCancellation(t *testing.T) {
	defer faultinject.Disarm()
	prog, db := ringWorkload(t, 6)

	faultinject.Arm(faultinject.FaurelogIteration, 2, context.Canceled)
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatalf("Eval with injected cancellation returned a hard error: %v", err)
	}
	if res.Truncated == nil {
		t.Fatal("injected cancellation did not truncate the run")
	}
	if res.Truncated.Kind != budget.Canceled {
		t.Fatalf("Truncated.Kind = %q, want %q", res.Truncated.Kind, budget.Canceled)
	}
}

// TestInjectedBudgetTripDeterministic injects a budget trip at a fixed
// fixpoint checkpoint: Eval must return a truncated result carrying the
// injected kind, and the same truncated tables on every run.
func TestInjectedBudgetTripDeterministic(t *testing.T) {
	db := condGraph(t, 30)
	prog := MustParse(condPrograms["recursive"])
	trip := &budget.Exceeded{Kind: budget.Tuples, Limit: 99, Where: "injected"}
	run := func() string {
		t.Helper()
		faultinject.Arm(faultinject.FaurelogIteration, 3, trip)
		defer faultinject.Disarm()
		res, err := Eval(prog, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated == nil || res.Truncated.Kind != budget.Tuples {
			t.Fatalf("Truncated = %v, want the injected tuple-budget trip", res.Truncated)
		}
		return dumpResult(res)
	}
	if first, again := run(), run(); first != again {
		t.Fatalf("truncated tables differ between runs:\nfirst:\n%s\nsecond:\n%s", first, again)
	}
}

// TestEvalFaultInjectedHardError: a non-budget injected fault is a
// real error — it must NOT be laundered into a truncated result.
func TestEvalFaultInjectedHardError(t *testing.T) {
	defer faultinject.Disarm()
	prog, db := ringWorkload(t, 6)

	boom := errors.New("injected storage fault")
	faultinject.Arm(faultinject.FaurelogIteration, 0, boom)
	res, err := Eval(prog, db, Options{})
	if err == nil {
		t.Fatal("injected hard fault was swallowed")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if _, ok := budget.As(err); ok {
		t.Fatalf("hard fault was misclassified as a budget trip: %v", err)
	}
	if res != nil && res.Truncated != nil {
		t.Fatalf("hard fault produced a Truncated record: %v", res.Truncated)
	}
}
