package faure_test

import (
	"testing"

	"faure"
)

// TestSolverCacheParity is the incremental solver's determinism
// contract: certificate replay, DAG propagation, the compiled
// finite-domain fast path and the absorption set test change how
// conditions are decided, never what the engine derives. The full
// Table 4 chain, the join-stress query and ring reachability (the two
// inputs whose absorption drops tuples) must be bit-for-bit identical
// to a run with the certificate store disabled entirely: the
// pure-search baseline, which also turns the set test off.
func TestSolverCacheParity(t *testing.T) {
	run := func(noCache bool) map[string]string {
		t.Helper()
		opts := faure.Options{NoSolverCache: noCache}
		r := faure.GenerateRIB(faure.RIBConfig{Prefixes: 80, PoolSize: 10, Seed: 3})
		fwd := r.ForwardingDatabase()
		out := map[string]string{}
		reach, err := faure.Eval(faure.ReachabilityProgram(), fwd, opts)
		if err != nil {
			t.Fatalf("noCache=%v q4-q5: %v", noCache, err)
		}
		out["q4-q5"] = dumpTables(reach.DB)
		q6, err := faure.Eval(faure.TwoLinkFailureProgram("x", "y", "z"), reach.DB, opts)
		if err != nil {
			t.Fatalf("noCache=%v q6: %v", noCache, err)
		}
		out["q6"] = dumpTables(q6.DB)
		q8, err := faure.Eval(faure.AtLeastOneFailureProgram(1, "y", "z"), reach.DB, opts)
		if err != nil {
			t.Fatalf("noCache=%v q8: %v", noCache, err)
		}
		out["q8"] = dumpTables(q8.DB)
		join, err := faure.Eval(faure.JoinStressProgram(), faure.JoinTopology(faure.JoinTopoConfig{Pods: 3, Fanout: 3, Seed: 1}), opts)
		if err != nil {
			t.Fatalf("noCache=%v join: %v", noCache, err)
		}
		out["join"] = dumpTables(join.DB)
		ring, err := faure.Eval(faure.ReachabilityProgram(), faure.RingTopology(5).ForwardingTable("F0"), opts)
		if err != nil {
			t.Fatalf("noCache=%v ring: %v", noCache, err)
		}
		out["ring"] = dumpTables(ring.DB)
		if !noCache && (join.Stats.Absorbed == 0 || ring.Stats.Absorbed == 0 ||
			join.Stats.AbsorbSetHits != join.Stats.AbsorbProbes || ring.Stats.AbsorbSetHits != ring.Stats.AbsorbProbes) {
			t.Errorf("the set test did not decide every absorbing probe: join %+v, ring %+v", join.Stats, ring.Stats)
		}
		if noCache && join.Stats.AbsorbSetHits+ring.Stats.AbsorbSetHits != 0 {
			t.Errorf("the set test ran without the certificate store")
		}
		return out
	}
	want := run(false)
	got := run(true) // pure-search ablation
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: pure-search tables diverge from the certificate solver's", name)
		}
	}
}

// tablePrefix reports whether every table of got is a row-for-row
// prefix of the same table in full. Budget-truncated evaluations stop
// on the deterministic commit order, so their tables are always
// prefixes of the untruncated result's.
func tablePrefix(got, full *faure.Database) string {
	for name, gt := range got.Tables {
		ft, ok := full.Tables[name]
		if !ok {
			return name + ": table absent from the full result"
		}
		if len(gt.Tuples) > len(ft.Tuples) {
			return name + ": truncated table is longer than the full one"
		}
		for i, tp := range gt.Tuples {
			if tp.Key() != ft.Tuples[i].Key() {
				return name + ": rows diverge from the full result"
			}
		}
	}
	return ""
}

// TestIncrementalBudgetTripRollback trips a solver-step budget
// mid-evaluation. A tripped decision is never cached, so the truncated
// result is (a) deterministic across repeats, (b) a row-for-row prefix
// of the full result — a tripped decision never commits a wrong tuple
// — that keeps every commit made before the trip, and (c) a fresh
// unbudgeted evaluation afterwards still produces the full, untainted
// result.
func TestIncrementalBudgetTripRollback(t *testing.T) {
	r := faure.GenerateRIB(faure.RIBConfig{Prefixes: 80, PoolSize: 10, Seed: 3})
	fwd := r.ForwardingDatabase()

	full, err := faure.Eval(faure.ReachabilityProgram(), fwd, faure.Options{})
	if err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	wantFull := dumpTables(full.DB)

	tripped := func() (string, *faure.Database) {
		t.Helper()
		bud := faure.NewBudget(nil, faure.Budget{SolverSteps: 40})
		res, err := faure.Eval(faure.ReachabilityProgram(), fwd, faure.WithBudget(faure.Options{}, bud))
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated == nil {
			t.Fatal("solver-step budget did not trip")
		}
		got := dumpTables(res.DB)
		if got == wantFull {
			t.Fatal("tripped run produced the full result; the budget did nothing")
		}
		// The input has no reach rows, so every one is a commit of this
		// run: a shorter prefix would still be a prefix.
		if n := res.DB.Table("reach").Len(); int64(n) != res.Stats.Derived {
			t.Errorf("truncated reach holds %d rows, but %d were committed", n, res.Stats.Derived)
		}
		return got, res.DB
	}
	first, db := tripped()
	if again, _ := tripped(); again != first {
		t.Error("truncated result not deterministic across repeats")
	}
	if msg := tablePrefix(db, full.DB); msg != "" {
		t.Error(msg)
	}

	// The trips left no poisoned certificate behind: re-running without
	// a budget in the same process reproduces the full result.
	again, err := faure.Eval(faure.ReachabilityProgram(), fwd, faure.Options{})
	if err != nil {
		t.Fatalf("post-trip run: %v", err)
	}
	if dumpTables(again.DB) != wantFull {
		t.Errorf("post-trip unbudgeted run diverges from the pre-trip result")
	}
}
