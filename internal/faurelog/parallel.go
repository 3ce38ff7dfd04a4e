package faurelog

// Parallel semi-naive evaluation.
//
// The sequential engine's emission order within a round is fully
// determined by the program and the store: rules in program order,
// and, per rule application, the join's depth-first visit of tuple
// candidates. The parallel engine preserves that order exactly by
// splitting a round into ordered units — a rule application with one
// body literal restricted to a contiguous tuple chunk — and running
// the units on a worker pool that only *collects* candidate emissions.
// All shared-state decisions (dedup, eager prune, absorption, budget
// tuple charges, inserts) happen afterwards, when the coordinator
// replays the candidates unit by unit through the same commit path the
// sequential engine uses. The result tables are therefore bit-for-bit
// identical at any worker count; only wall-clock and counters that
// track speculative work (solver sat calls) may differ.
//
// Shared state during the worker phase is either frozen (the relation
// store, the derived relations' group tables, engine configuration) or
// concurrency-safe (the budget tracker, relation probe counters, the
// observer registry). Each worker owns a private solver; solvers share learned
// satisfiability decisions through a solver.Memo that is flushed only
// at round barriers, while no worker runs.
//
// Budget semantics: a budget trip inside the worker phase rolls the
// whole round back — nothing is committed — so a truncated parallel
// run always stops exactly at a round boundary (a deterministic
// under-approximation) instead of at a schedule-dependent point
// mid-round. Trips during the serial merge behave like sequential
// trips: the round's tuples committed so far stand.

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/obs"
	"faure/internal/solver"
)

// unit is one schedulable rule application: a compiled rule plan
// with (when the plan is fed) its first literal restricted to an
// explicit tuple slice. The concatenation of the units' emissions in
// unit order equals the sequential engine's emission order.
type unit struct {
	p     *rulePlan
	delta []ctable.Tuple
}

// candidate is one potential emission collected by a worker, with the
// speculative satisfiability verdict its solver computed.
type candidate struct {
	p        prepared
	satKnown bool
	sat      bool
}

// unitResult is everything one unit produced: ordered candidates plus
// the counters and solver time to fold into the engine's stats at
// merge.
type unitResult struct {
	cands       []candidate
	falsePruned int64
	satCalls    int64
	solverTime  time.Duration
	err         error
}

// evalWorker is the per-goroutine state: a private solver (sharing
// domains, budget and — through the barrier-flushed memo — learned
// decisions with its peers) plus its pool index, stamped onto the
// candidates it prepares for provenance diagnostics.
type evalWorker struct {
	sol *solver.Solver
	idx int
}

// minChunk keeps shards coarse enough that per-unit overhead (budget
// polls, result slices) stays negligible against join work.
const minChunk = 16

func (e *engine) chunkSize(n int) int {
	shards := len(e.wrk) * 4
	size := (n + shards - 1) / shards
	if size < minChunk {
		size = minChunk
	}
	return size
}

func appendChunks(out []unit, p *rulePlan, tuples []ctable.Tuple, size int) []unit {
	for start := 0; start < len(tuples); start += size {
		end := min(start+size, len(tuples))
		out = append(out, unit{p: p, delta: tuples[start:end]})
	}
	return out
}

// splitUnits re-partitions a round's units into finer shards for the
// pool: delta slices are chunked contiguously, and full (round-zero)
// rule applications become delta-style units over the first positive
// literal's candidate list. Order is preserved, which is what lets the
// merge replay the sequential emission order.
func (e *engine) splitUnits(units []unit) []unit {
	out := make([]unit, 0, len(units)*2)
	for _, u := range units {
		if u.p.fed {
			out = appendChunks(out, u.p, u.delta, e.chunkSize(len(u.delta)))
			continue
		}
		fed, tuples, ok := e.roundZeroSeed(u.p)
		if !ok {
			out = append(out, u)
			continue
		}
		// An empty candidate list means the sequential join would emit
		// nothing for this rule; drop it rather than schedule a no-op.
		out = appendChunks(out, fed, tuples, e.chunkSize(len(tuples)))
	}
	return out
}

// roundZeroSeed finds the body literal a full rule application visits
// first — the first positive literal, canonical slot zero — and
// materialises its candidate list in exactly the order the sequential
// join would, so chunking it as a delta of the plan fed at that
// literal is emission-order neutral. ok=false means the rule cannot be
// chunked (empty or all-negative body) and must run whole.
func (e *engine) roundZeroSeed(p *rulePlan) (*rulePlan, []ctable.Tuple, bool) {
	if p.nPos == 0 {
		return nil, nil, false
	}
	first := &p.lits[0]
	fed := p.plan(first.pos)
	rel := e.store.Rel(first.pred)
	if rel == nil {
		return fed, nil, true // no relation: the rule derives nothing this round
	}
	// Nothing is bound before slot zero, so only constant columns probe.
	idxs := e.candidates(rel, first, make([]cond.Term, p.nSlots))
	tuples := make([]ctable.Tuple, len(idxs))
	for i, idx := range idxs {
		tuples[i] = rel.Tuple(idx)
	}
	return fed, tuples, true
}

// runRoundParallel is the worker-pool counterpart of runRoundSeq.
func (e *engine) runRoundParallel(units []unit, sink func(string, ctable.Tuple), itSpan obs.Span) error {
	units = e.splitUnits(units)
	if len(units) == 0 {
		return nil
	}
	results := make([]unitResult, len(units))
	workers := min(len(e.wrk), len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		w := e.wrk[wi]
		var wspan obs.Span
		if e.obsOn {
			wspan = itSpan.StartChild("worker", obs.Int("worker", int64(wi)))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			nUnits, nCands := 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					break
				}
				e.runUnit(w, units[i], &results[i])
				nUnits++
				nCands += len(results[i].cands)
				// On a budget trip the tracker is sticky, so the
				// remaining units drain quickly: every solver call and
				// poll fails fast with the same record.
			}
			if e.obsOn {
				wspan.SetAttrs(obs.Int("units", int64(nUnits)), obs.Int("candidates", int64(nCands)))
				wspan.End()
			}
		}()
	}
	wg.Wait()
	// Barrier: fold each worker solver's counters and newly learned
	// decisions into the shared state before the serial merge.
	for _, w := range e.wrk {
		e.sol.AddStats(w.sol.Stats())
		w.sol.ResetStats()
		if e.memo != nil {
			w.sol.FlushMemo(e.memo)
		}
	}
	if e.memo != nil {
		e.sol.FlushMemo(e.memo)
	}
	// Any worker-phase failure rolls the whole round back (nothing is
	// committed); the first error in unit order is reported.
	for i := range results {
		if results[i].err != nil {
			return results[i].err
		}
	}
	return e.mergeRound(results, sink)
}

// runUnit joins one unit on a worker goroutine, collecting candidate
// emissions in order. It touches only frozen engine state, the
// concurrency-safe budget, and the worker's own solver.
func (e *engine) runUnit(w *evalWorker, u unit, ur *unitResult) {
	var localSeen map[ctable.TupleID]struct{}
	emit := func(rp *rulePlan, slots []cond.Term, conds []*cond.Formula, srcs []Source) error {
		p, live, err := e.prepareEmit(rp, slots, conds, srcs)
		if err != nil {
			return err
		}
		p.worker = w.idx
		if !live {
			ur.falsePruned++
			return nil
		}
		// Drop conditions the group table already holds from earlier
		// rounds (it is frozen during the worker phase) and duplicates
		// within this unit: the merge would drop both anyway, so skipping
		// the speculative solver call is pure savings. Cross-unit duplicates
		// survive to the merge, which resolves them in emission order.
		if slices.Contains(p.rule.groups[p.dataKey].conds, p.cond) {
			return nil
		}
		if _, dup := localSeen[p.key]; dup {
			return nil
		}
		if localSeen == nil {
			localSeen = map[ctable.TupleID]struct{}{}
		}
		localSeen[p.key] = struct{}{}
		c := candidate{p: p}
		if !e.opts.NoEagerPrune {
			start := time.Now()
			sat, err := w.sol.SatisfiableFrom(p.cond, p.base)
			ur.solverTime += time.Since(start)
			ur.satCalls++
			if err != nil {
				return err
			}
			c.satKnown, c.sat = true, sat
		}
		ur.cands = append(ur.cands, c)
		return nil
	}
	ur.err = e.deriveRule(u.p, u.delta, emit)
}

// mergeRound replays every unit's candidates, in unit order, through
// the same commit path the sequential engine uses — so each dedup,
// prune, absorption and insert decision is made with exactly the state
// it would have had sequentially.
func (e *engine) mergeRound(results []unitResult, sink func(string, ctable.Tuple)) error {
	var derivedByPred map[string]int64
	if e.obsOn {
		derivedByPred = map[string]int64{}
	}
	for i := range results {
		ur := &results[i]
		e.stats.Pruned += ur.falsePruned
		e.stats.SatCalls += ur.satCalls
		e.stats.SolverTime += ur.solverTime
		for _, c := range ur.cands {
			before := e.stats.Derived
			if err := e.commit(c.p, c.satKnown, c.sat, sink); err != nil {
				return err
			}
			if derivedByPred != nil && e.stats.Derived > before {
				derivedByPred[c.p.pred]++
			}
		}
	}
	for pred, n := range derivedByPred {
		e.o.Count("eval.rule_derived."+pred, n)
	}
	return nil
}
