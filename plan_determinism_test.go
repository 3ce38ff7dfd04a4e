package faure_test

import (
	"fmt"
	"testing"

	"faure"
)

// planWorkloads runs the Table 4 query chain plus the join-stress
// workload with the given planner setting, returning the canonical
// dump of every result database keyed by workload name.
func planWorkloads(t *testing.T, noPlan bool) map[string]string {
	t.Helper()
	opts := faure.Options{NoPlan: noPlan}
	tag := fmt.Sprintf("noPlan=%v", noPlan)

	out := map[string]string{}
	r := faure.GenerateRIB(faure.RIBConfig{Prefixes: 80, PoolSize: 10, Seed: 3})
	fwd := r.ForwardingDatabase()
	reach, err := faure.Eval(faure.ReachabilityProgram(), fwd, opts)
	if err != nil {
		t.Fatalf("%s q4-q5: %v", tag, err)
	}
	out["q4-q5"] = dumpTables(reach.DB)
	q6, err := faure.Eval(faure.TwoLinkFailureProgram("x", "y", "z"), reach.DB, opts)
	if err != nil {
		t.Fatalf("%s q6: %v", tag, err)
	}
	out["q6"] = dumpTables(q6.DB)
	q7, err := faure.Eval(faure.PinnedPairFailureProgram(2, 5, "y"), q6.DB, opts)
	if err != nil {
		t.Fatalf("%s q7: %v", tag, err)
	}
	out["q7"] = dumpTables(q7.DB)
	q8, err := faure.Eval(faure.AtLeastOneFailureProgram(1, "y", "z"), reach.DB, opts)
	if err != nil {
		t.Fatalf("%s q8: %v", tag, err)
	}
	out["q8"] = dumpTables(q8.DB)

	// The join-stress fixture: multi-way joins over a fat-tree with
	// c-variable link endpoints and indexed negation — the shape the
	// planner actually reorders.
	join, err := faure.Eval(faure.JoinStressProgram(),
		faure.JoinTopology(faure.JoinTopoConfig{Pods: 4, Fanout: 3, Seed: 3}), opts)
	if err != nil {
		t.Fatalf("%s join: %v", tag, err)
	}
	out["join"] = dumpTables(join.DB)
	return out
}

// TestPlanDeterminism is the planner's contract: the cost-guided
// planner may change how rule bodies are evaluated, never what they
// produce. Every workload's result database — tuples, conditions and
// row order — must be bit-for-bit identical with the planner on and
// off.
func TestPlanDeterminism(t *testing.T) {
	written := planWorkloads(t, true)
	planned := planWorkloads(t, false)
	for name, want := range written {
		if planned[name] != want {
			t.Errorf("%s: planned tables diverge from the written-order run\nwant:\n%.2000s\ngot:\n%.2000s",
				name, want, planned[name])
		}
	}
}
