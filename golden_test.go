package faure_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"faure"
)

// dumpTables renders every table of a database — names, tuple data,
// conditions and row order — into one canonical string, so equality is
// bit-for-bit determinism.
func dumpTables(db *faure.Database) string {
	var names []string
	for name := range db.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "== %s\n", name)
		for i, tp := range db.Tables[name].Tuples {
			fmt.Fprintf(&b, "%5d %s\n", i, tp.Key())
		}
	}
	return b.String()
}

// goldenDumps runs the golden fixtures at one planner setting and
// returns the SHA-256 of each result's dumpTables — table names, tuple
// data, conditions and row order.
func goldenDumps(t *testing.T, noPlan bool) map[string]string {
	t.Helper()
	opts := faure.Options{NoPlan: noPlan}
	tag := fmt.Sprintf("noPlan=%v", noPlan)
	out := map[string]string{}
	eval := func(name string, prog *faure.Program, db *faure.Database) *faure.Database {
		t.Helper()
		res, err := faure.Eval(prog, db, opts)
		if err != nil {
			t.Fatalf("%s %s: %v", tag, name, err)
		}
		sum := sha256.Sum256([]byte(dumpTables(res.DB)))
		out[name] = hex.EncodeToString(sum[:])
		return res.DB
	}

	// The Table 4 chain: q4-q5 reach, then q6 and q7 over it, and q8
	// over reach.
	r := faure.GenerateRIB(faure.RIBConfig{Prefixes: 80, PoolSize: 10, Seed: 3})
	reach := eval("q4-q5", faure.ReachabilityProgram(), r.ForwardingDatabase())
	q6 := eval("q6", faure.TwoLinkFailureProgram("x", "y", "z"), reach)
	eval("q7", faure.PinnedPairFailureProgram(2, 5, "y"), q6)
	eval("q8", faure.AtLeastOneFailureProgram(1, "y", "z"), reach)

	// Join-stress at 27 hosts: multi-way joins the planner reorders,
	// c-variable link endpoints and indexed negation.
	eval("join", faure.JoinStressProgram(),
		faure.JoinTopology(faure.JoinTopoConfig{Pods: 3, Fanout: 3, Seed: 3}))

	// A head condition mixing a program variable with c-variables under
	// every expression kind.
	prog, err := faure.Parse(`q(x) [($u = 1 && x != A) || !($u = 0)] :- r(x).`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := faure.ParseDatabase(`
		var $u in {0, 1}.
		var $w in {A, B, C}.
		r(A). r(B). r(C)[$u = 1]. r($w).
	`)
	if err != nil {
		t.Fatal(err)
	}
	eval("headcond", prog, db)

	// A written-order join whose second literal is probed on two bound
	// columns, one of them holding a c-variable: the written order emits
	// the probed column's constants before its c-variables, which is
	// not the store order.
	prog, err = faure.Parse(`q(x, z) :- a(x, y), b(x, y, z).`)
	if err != nil {
		t.Fatal(err)
	}
	db, err = faure.ParseDatabase(`
		var $w in {A, B}.
		a(A, 1). b($w, 1, 5). b(A, 1, 6).
	`)
	if err != nil {
		t.Fatal(err)
	}
	eval("probeorder", prog, db)

	// Round snapshots: r(1, 3) needs r(1, 2), which round zero derives,
	// so it is derived one round later, after r(5, 6). A join that saw
	// same-round commits would emit r(1, 3) first.
	prog, err = faure.Parse(`
		r(x, y) :- e(x, y).
		r(x, z) :- r(x, y), e(y, z).
		r(x, y) :- g(x, y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db, err = faure.ParseDatabase(`e(1, 2). e(2, 3). g(5, 6).`)
	if err != nil {
		t.Fatal(err)
	}
	eval("sameround", prog, db)

	// Two increments over the q4-q5 result: EvalIncrement's own rows
	// and their order, not only their agreement with Eval.
	increment := func(prev *faure.Database, src string) *faure.Database {
		t.Helper()
		facts, err := faure.ParseDatabase(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := faure.EvalIncrement(faure.ReachabilityProgram(), prev,
			map[string][]faure.Tuple{"fwd": facts.Table("fwd").Tuples}, opts)
		if err != nil {
			t.Fatalf("%s increment: %v", tag, err)
		}
		return res.DB
	}
	inc := increment(reach, `
		var $y in {0, 1}.
		fwd('10.0.0.0/24', 54, 99).
		fwd('10.0.0.0/24', 3, 1)[$y = 1].
		fwd('10.0.1.0/24', 16, 54).
	`)
	inc = increment(inc, `
		fwd('10.0.0.0/24', 99, 100).
		fwd('10.0.1.0/24', 7, 5).
	`)
	sum := sha256.Sum256([]byte(dumpTables(inc)))
	out["increment"] = hex.EncodeToString(sum[:])
	return out
}

// TestGoldenOrderedDumps pins the engine's exact output — every table,
// condition and row, in emission order — to recorded hashes, taken
// from the engine as it was before rules were compiled into slot
// plans; sameround and increment were recorded before commits went
// straight into the store under round watermarks. Every other
// determinism test compares the engine with itself, so a change of
// emission order shared by both planner settings would pass them; this
// one does not.
func TestGoldenOrderedDumps(t *testing.T) {
	want := map[string]string{
		"q4-q5":      "468227413462269b5170a4765df53db15cba72369273acd5f7ce0b2addedb088",
		"q6":         "fa42f419ac53d4614da5d67db58d0e01ce6bbead705463a46d5710a67b1a0fb3",
		"q7":         "d975a72155a29a7a559f32cb1216e4bc60885bc5d49ef08a812bf7d6bca7083b",
		"q8":         "97a29368bbfd4086cd7c9d38122b6b4eb48e184d19d5c1e7a9670a535b9b4f7f",
		"join":       "681d7f401fabc13c1125536a69b8be72a44688846d938e70a4ab3224f3f512bd",
		"headcond":   "047d001ca628b1699a57214a109aa92ced5b8614107cb2c61038340d7c7ec12b",
		"probeorder": "ed6a5a7b2d3a932c398edd9c796c9dfd9bf873f4ed2403ec78168c0bf716ab6b",
		"sameround":  "c8321a8160ad128a4bef2b3a2b904e0aad15ddbfbd9779fb5b401d002bf45c01",
		"increment":  "8f013d4ec26d30f61b27d2cc0d353aa584da046d5147234f122d855a16763640",
	}
	for _, noPlan := range []bool{false, true} {
		got := goldenDumps(t, noPlan)
		for name, h := range want {
			if got[name] != h {
				t.Errorf("noPlan=%v %s: dump hash %s, want %s", noPlan, name, got[name], h)
			}
		}
	}
}
