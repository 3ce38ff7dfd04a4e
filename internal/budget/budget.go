// Package budget implements resource governance for the fauré
// analysis layers: wall-clock deadlines (from a context or an explicit
// timeout), a solver-step budget bounding the satisfiability search, a
// cap on derived tuples, and a cap on the size of any single derived
// condition.
//
// Fauré's promise is relative completeness — a decisive answer when
// the available information permits, Unknown only when more is
// genuinely needed. Resource exhaustion is treated the same way:
// exceeding a budget is not a crash and not an ordinary error, it is a
// third source of Unknown. The engines stop at the next checkpoint,
// return whatever partial result they have, and surface a typed
// *Exceeded describing which budget ran out and where; the verifier
// converts that into an Unknown verdict with a structured reason.
//
// A nil *B disables every check at the cost of one pointer comparison
// per checkpoint, so budgets are strictly opt-in and, by construction,
// decision-preserving: an un-budgeted run takes exactly the code paths
// it took before this package existed.
//
// The package depends only on the standard library; every analysis
// layer imports it.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Kind names the resource a budget bounds.
type Kind string

// Budget kinds, in the order they are typically noticed.
const (
	// Canceled means the evaluation's context was canceled.
	Canceled Kind = "canceled"
	// Deadline means the wall-clock deadline (explicit Timeout or the
	// context's own deadline) passed.
	Deadline Kind = "deadline"
	// SolverSteps means the solver exhausted its search-node budget.
	SolverSteps Kind = "solver-steps"
	// Tuples means the evaluation derived more tuples than allowed.
	Tuples Kind = "tuples"
	// CondSize means a derived condition grew beyond the per-condition
	// atom cap.
	CondSize Kind = "cond-size"
)

// Exceeded reports one exhausted budget. It is sticky: once a tracker
// trips, every later check returns the same *Exceeded, so an engine
// that misses the first signal halts at its next checkpoint.
type Exceeded struct {
	// Kind names the exhausted resource.
	Kind Kind
	// Limit is the configured bound (0 for context cancellation, the
	// deadline's wall-clock budget in nanoseconds for Deadline).
	Limit int64
	// Where describes the phase that first noticed the exhaustion
	// ("solver", "eval stratum 3 round 12", ...). The first layer with
	// richer position information may fill it in when empty.
	Where string
}

// Error renders the structured reason, e.g.
// "solver step budget (10000) exhausted at eval stratum 3".
func (e *Exceeded) Error() string {
	var what string
	switch e.Kind {
	case Canceled:
		what = "evaluation canceled"
	case Deadline:
		what = fmt.Sprintf("deadline (%v) exceeded", time.Duration(e.Limit))
	case SolverSteps:
		what = fmt.Sprintf("solver step budget (%d) exhausted", e.Limit)
	case Tuples:
		what = fmt.Sprintf("derived-tuple budget (%d) exhausted", e.Limit)
	case CondSize:
		what = fmt.Sprintf("condition size budget (%d atoms) exhausted", e.Limit)
	default:
		what = fmt.Sprintf("%s budget exhausted", e.Kind)
	}
	if e.Where != "" {
		return what + " at " + e.Where
	}
	return what
}

// Unwrap maps the cancellation kinds onto the standard context
// sentinels, so errors.Is(err, context.Canceled) keeps working through
// a budget trip.
func (e *Exceeded) Unwrap() error {
	switch e.Kind {
	case Canceled:
		return context.Canceled
	case Deadline:
		return context.DeadlineExceeded
	}
	return nil
}

// As extracts a *Exceeded from an error chain.
func As(err error) (*Exceeded, bool) {
	var e *Exceeded
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// Limits configures a budget. The zero value bounds nothing.
type Limits struct {
	// Timeout is the wall-clock budget for the whole operation; 0
	// means no explicit deadline (a context deadline still applies).
	Timeout time.Duration
	// SolverSteps bounds the solver's search nodes (finite-domain
	// enumeration plus DPLL case splits) across all calls charged to
	// this budget; 0 means unbounded.
	SolverSteps int64
	// Tuples bounds the number of derived tuples; 0 means unbounded.
	Tuples int64
	// CondSize bounds the atom count of any single derived condition;
	// 0 means unbounded.
	CondSize int64
}

// Zero reports whether the limits bound nothing.
func (l Limits) Zero() bool { return l == Limits{} }

// pollEvery is how many units of work pass between wall-clock polls —
// solver steps, and derived conditions weighted by their atom count —
// so a deadline fires inside a long solver run or rule application
// without a clock read per search node or per derivation.
const pollEvery = 4096

// B is the live accounting for one operation (an evaluation, a
// verification ladder, a benchmark sweep). Create one with New and
// share it across the layers that should drain the same budgets — the
// verifier hands one tracker to containment, evaluation and the
// solver, so "10k solver steps" means 10k steps total, not per phase.
//
// A nil *B is valid everywhere and disables all checks. A tracker is
// safe for concurrent use: goroutines sharing one charge steps and
// tuples through atomic counters. The first goroutine to exhaust a
// budget records the trip (first trip wins); every later check on any
// goroutine returns that same sticky *Exceeded, so every sharer stops
// at its next checkpoint.
type B struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	timeout     time.Duration // for the Exceeded report
	limits      Limits
	stepsLeft   atomic.Int64
	tuplesLeft  atomic.Int64
	sincePoll   atomic.Int64
	tripped     atomic.Pointer[Exceeded]
}

// New returns a tracker enforcing the limits under the given context.
// ctx may be nil (treated as context.Background()); its cancellation
// and deadline are honored in addition to l.Timeout, whichever is
// sooner. The deadline clock starts at New.
func New(ctx context.Context, l Limits) *B {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &B{ctx: ctx, limits: l}
	b.stepsLeft.Store(l.SolverSteps)
	b.tuplesLeft.Store(l.Tuples)
	if l.Timeout > 0 {
		b.deadline = time.Now().Add(l.Timeout)
		b.hasDeadline = true
		b.timeout = l.Timeout
	}
	if d, ok := ctx.Deadline(); ok && (!b.hasDeadline || d.Before(b.deadline)) {
		b.deadline = d
		b.hasDeadline = true
		b.timeout = time.Until(d)
	}
	return b
}

// Limits returns the configured limits (zero for a nil tracker).
func (b *B) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.limits
}

// Err returns the sticky exhaustion error, or nil while every budget
// still has headroom. It does not read the clock.
func (b *B) Err() error {
	if b == nil {
		return nil
	}
	if t := b.tripped.Load(); t != nil {
		return t
	}
	return nil
}

// Exceeded returns the sticky trip record, or nil.
func (b *B) Exceeded() *Exceeded {
	if b == nil {
		return nil
	}
	return b.tripped.Load()
}

// trip records the first exhaustion and returns it (or the earlier
// one: the first trip wins — also across goroutines — so every layer
// reports the same reason).
func (b *B) trip(kind Kind, limit int64, where string) *Exceeded {
	b.tripped.CompareAndSwap(nil, &Exceeded{Kind: kind, Limit: limit, Where: where})
	return b.tripped.Load()
}

// Check polls cancellation and the wall-clock deadline; call it
// between iterations, rule applications, mapping enumerations and
// other coarse units of work. where names the caller for the report.
func (b *B) Check(where string) error {
	if b == nil {
		return nil
	}
	if t := b.tripped.Load(); t != nil {
		return t
	}
	if err := b.ctx.Err(); err != nil {
		kind := Canceled
		if errors.Is(err, context.DeadlineExceeded) {
			kind = Deadline
		}
		return b.trip(kind, int64(b.timeout), where)
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		return b.trip(Deadline, int64(b.timeout), where)
	}
	return nil
}

// SolverStep charges one search node to the solver-step budget. Every
// pollEvery steps it also polls the wall clock, so a deadline
// interrupts even a single enormous satisfiability call.
func (b *B) SolverStep() error {
	if b == nil {
		return nil
	}
	if t := b.tripped.Load(); t != nil {
		return t
	}
	if b.limits.SolverSteps > 0 {
		if b.stepsLeft.Add(-1) < 0 {
			return b.trip(SolverSteps, b.limits.SolverSteps, "solver")
		}
	}
	return b.poll(1, "solver")
}

// poll counts n units of work toward the next wall-clock poll and polls
// (Check) once pollEvery units have passed.
func (b *B) poll(n int64, where string) error {
	if b.sincePoll.Add(n) >= pollEvery {
		// The reset is racy when goroutines share the tracker — several
		// may reset around the same threshold crossing — but polling is
		// approximate by design: what matters is that some caller reads
		// the clock at least every pollEvery units, which the shared
		// counter guarantees.
		b.sincePoll.Store(0)
		return b.Check(where)
	}
	return nil
}

// AddTuples charges n derived tuples to the tuple budget.
func (b *B) AddTuples(n int64, where string) error {
	if b == nil {
		return nil
	}
	if t := b.tripped.Load(); t != nil {
		return t
	}
	if b.limits.Tuples <= 0 {
		return nil
	}
	if b.tuplesLeft.Add(-n) < 0 {
		return b.trip(Tuples, b.limits.Tuples, where)
	}
	return nil
}

// CheckCond validates one derived condition's atom count against the
// per-condition size budget. Like SolverStep, it counts toward the next
// wall-clock poll, by the condition's atom count (at least one): the
// work of building and deciding a condition grows with its size, so a
// deadline fires inside a rule application that derives many or large
// conditions and charges few solver steps.
func (b *B) CheckCond(atoms int, where string) error {
	if b == nil {
		return nil
	}
	if t := b.tripped.Load(); t != nil {
		return t
	}
	if b.limits.CondSize > 0 && int64(atoms) > b.limits.CondSize {
		return b.trip(CondSize, b.limits.CondSize, where)
	}
	return b.poll(int64(max(atoms, 1)), where)
}
