package budget

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilTrackerIsUnlimited(t *testing.T) {
	var b *B
	if err := b.Check("x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if err := b.SolverStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddTuples(1<<40, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckCond(1<<30, "x"); err != nil {
		t.Fatal(err)
	}
	if b.Err() != nil || b.Exceeded() != nil {
		t.Fatal("nil tracker reported exhaustion")
	}
	if !b.Limits().Zero() {
		t.Fatal("nil tracker has limits")
	}
}

func TestSolverStepBudget(t *testing.T) {
	b := New(nil, Limits{SolverSteps: 10})
	for i := 0; i < 10; i++ {
		if err := b.SolverStep(); err != nil {
			t.Fatalf("step %d tripped early: %v", i, err)
		}
	}
	err := b.SolverStep()
	if err == nil {
		t.Fatal("step 11 did not trip")
	}
	ex, ok := As(err)
	if !ok || ex.Kind != SolverSteps || ex.Limit != 10 {
		t.Fatalf("wrong trip: %+v", ex)
	}
	// Sticky: every later check returns the same record.
	if err2 := b.Check("later"); err2 != err {
		t.Fatalf("not sticky: %v vs %v", err2, err)
	}
	if b.Exceeded() != ex {
		t.Fatal("Exceeded() disagrees with the returned error")
	}
	if !strings.Contains(ex.Error(), "solver step budget (10) exhausted") {
		t.Fatalf("unhelpful message: %q", ex.Error())
	}
}

func TestTupleBudget(t *testing.T) {
	b := New(nil, Limits{Tuples: 5})
	if err := b.AddTuples(5, "eval"); err != nil {
		t.Fatal(err)
	}
	err := b.AddTuples(1, "eval stratum 2")
	ex, ok := As(err)
	if !ok || ex.Kind != Tuples {
		t.Fatalf("want Tuples trip, got %v", err)
	}
	if !strings.Contains(ex.Error(), "at eval stratum 2") {
		t.Fatalf("missing location: %q", ex.Error())
	}
}

func TestCondSizeBudget(t *testing.T) {
	b := New(nil, Limits{CondSize: 100})
	if err := b.CheckCond(100, "emit"); err != nil {
		t.Fatal(err)
	}
	err := b.CheckCond(101, "emit")
	if ex, ok := As(err); !ok || ex.Kind != CondSize {
		t.Fatalf("want CondSize trip, got %v", err)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{})
	if err := b.Check("pre"); err != nil {
		t.Fatal(err)
	}
	cancel()
	err := b.Check("eval iteration 3")
	ex, ok := As(err)
	if !ok || ex.Kind != Canceled {
		t.Fatalf("want Canceled trip, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("Exceeded does not unwrap to context.Canceled")
	}
}

func TestTimeoutDeadline(t *testing.T) {
	b := New(nil, Limits{Timeout: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	err := b.Check("eval")
	ex, ok := As(err)
	if !ok || ex.Kind != Deadline {
		t.Fatalf("want Deadline trip, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("Exceeded does not unwrap to context.DeadlineExceeded")
	}
}

func TestContextDeadlineWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := New(ctx, Limits{Timeout: time.Hour})
	time.Sleep(5 * time.Millisecond)
	if err := b.Check("eval"); err == nil {
		t.Fatal("context deadline ignored when Timeout is longer")
	}
}

func TestDeadlinePolledInsideSolverSteps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		step  func(*B) error
		calls int
	}{
		{"SolverStep", (*B).SolverStep, 2 * pollEvery},
		{"CheckCond", func(b *B) error { return b.CheckCond(1, "derived condition") }, 2 * pollEvery},
		// A condition counts by its atoms: a large one polls at once.
		{"CheckCondAtoms", func(b *B) error { return b.CheckCond(pollEvery, "derived condition") }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := New(nil, Limits{Timeout: time.Millisecond})
			time.Sleep(5 * time.Millisecond)
			// No explicit Check: the unit's poll alone must notice the
			// deadline.
			var err error
			for i := 0; i < tc.calls && err == nil; i++ {
				err = tc.step(b)
			}
			if ex, ok := As(err); !ok || ex.Kind != Deadline {
				t.Fatalf("deadline not noticed within %d calls: %v", tc.calls, err)
			}
		})
	}
}

func TestFirstTripWins(t *testing.T) {
	b := New(nil, Limits{SolverSteps: 1, Tuples: 1})
	if err := b.SolverStep(); err != nil {
		t.Fatal(err)
	}
	first := b.SolverStep()
	second := b.AddTuples(100, "x")
	if first == nil || second != first {
		t.Fatalf("later trip replaced the first: %v vs %v", first, second)
	}
}

func TestWhereAnnotation(t *testing.T) {
	ex := &Exceeded{Kind: SolverSteps, Limit: 10000}
	if ex.Where != "" {
		t.Fatal("fresh record has a location")
	}
	ex.Where = "stratum 3"
	if !strings.Contains(ex.Error(), "exhausted at stratum 3") {
		t.Fatalf("annotation not rendered: %q", ex.Error())
	}
}
