// Package faultinject provides deterministic fault injection points
// for exercising the degradation paths of the analysis layers: a
// failing solver, a slow relational store, a context canceled at
// iteration N. Production code consults the registry at named points;
// tests arm a point with a countdown and an error (or a delay) and
// assert the engines degrade instead of crashing or hanging.
//
// The disarmed cost is one atomic load per injection site (the sites
// themselves sit on coarse paths: per solver call, per fixpoint
// iteration, per relation insert). Points fire deterministically: the
// Nth Fire call at an armed point returns the configured error, every
// call at a delayed point sleeps the configured duration first.
//
// The package is stdlib-only and safe for concurrent use; tests that
// arm points must Disarm them (defer faultinject.Disarm()) and must
// not run in parallel with other injection users.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site. The production sites:
//
//	solver.sat                — entry of every Solver.Satisfiable decision
//	faurelog.iteration        — top of every fixpoint round (scratch and incremental)
//	faurelog.increment.commit — after incremental propagation converges, before
//	                            the result database is assembled (the increment's
//	                            commit point)
//	relstore.insert           — every Relation.Append (Insert included)
//	minisql.loop              — top of every LOOP pass
//	rewrite.apply             — once per change while ApplyBudgeted materialises
//	                            an update (deletes first, then inserts), so the
//	                            Nth change of an update can fail deterministically
//	serve.wal.append          — after a WAL record body is buffered, before its
//	                            commit marker is written (simulates a torn record)
//	serve.wal.sync            — before the WAL fsync returns (simulates a crash
//	                            with the record buffered but not durable)
//	serve.publish             — after the WAL commit, before the new generation
//	                            is published to readers (simulates a crash between
//	                            durability and visibility)
type Point string

// The registered production injection sites.
const (
	SolverSat               Point = "solver.sat"
	FaurelogIteration       Point = "faurelog.iteration"
	FaurelogIncrementCommit Point = "faurelog.increment.commit"
	RelstoreInsert          Point = "relstore.insert"
	MinisqlLoop             Point = "minisql.loop"
	RewriteApply            Point = "rewrite.apply"
	ServeWALAppend          Point = "serve.wal.append"
	ServeWALSync            Point = "serve.wal.sync"
	ServePublish            Point = "serve.publish"
)

type plan struct {
	after int64 // remaining Fire calls before the error fires
	err   error
	delay time.Duration
}

var (
	mu    sync.Mutex
	plans map[Point]*plan
	armed atomic.Bool
)

// Armed reports whether any injection is active. Production sites
// guard their Fire call behind it so the disarmed cost is one atomic
// load.
func Armed() bool { return armed.Load() }

// Arm configures point to return err on its after-th Fire call
// (after=1 fires on the very next call). A zero err with a positive
// after arms a no-op plan (useful to count calls via delay-only
// plans). Re-arming a point replaces its plan.
func Arm(point Point, after int, err error) {
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = map[Point]*plan{}
	}
	p := plans[point]
	if p == nil {
		p = &plan{}
		plans[point] = p
	}
	p.after = int64(after)
	p.err = err
	armed.Store(true)
}

// ArmDelay makes every Fire call at point sleep d before returning
// (the "slow relstore" harness). Combines with Arm on the same point.
func ArmDelay(point Point, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = map[Point]*plan{}
	}
	p := plans[point]
	if p == nil {
		p = &plan{}
		plans[point] = p
	}
	p.delay = d
	armed.Store(true)
}

// Disarm clears every plan.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	plans = nil
	armed.Store(false)
}

// Fire consults the plan for point: it sleeps the configured delay (if
// any), decrements the countdown, and returns the configured error
// when the countdown reaches zero (and on every call after, so a
// failing dependency stays failed). Unarmed points return nil.
func Fire(point Point) error {
	mu.Lock()
	p := plans[point]
	var (
		delay time.Duration
		err   error
	)
	if p != nil {
		delay = p.delay
		if p.err != nil {
			p.after--
			if p.after <= 0 {
				err = p.err
			}
		}
	}
	mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}
