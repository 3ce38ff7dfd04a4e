package faure_test

import (
	"strings"
	"testing"

	"faure"
)

// TestEndToEndPipeline drives the system the way a user would, through
// the public API only: generate a workload, serialise and re-parse it,
// run the paper's analyses on both backends, classify answers, check
// loss-lessness, and finish with a verification ladder — one test that
// fails if any joint between the subsystems drifts.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate a synthetic RIB and compile it to forwarding state.
	r := faure.GenerateRIB(faure.RIBConfig{Prefixes: 8, Seed: 21, PoolSize: 4})
	db := r.ForwardingDatabase()

	// 2. Serialise the database to text and parse it back; the round
	// trip must preserve evaluation behaviour exactly.
	text := faure.FormatDatabase(db)
	db2, err := faure.ParseDatabase(text)
	if err != nil {
		t.Fatalf("parse of formatted database: %v\n%s", err, text)
	}

	// 3. All-pairs reachability on the native engine, from both copies.
	prog := faure.ReachabilityProgram()
	res1, err := faure.Eval(prog, db, faure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := faure.Eval(prog, db2, faure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.DB.Table("reach").Len() != res2.DB.Table("reach").Len() {
		t.Fatalf("formatted/parsed database evaluates differently: %d vs %d tuples",
			res1.DB.Table("reach").Len(), res2.DB.Table("reach").Len())
	}

	// 4. The SQL backend agrees on satisfiable data parts.
	sqlDB, _, err := faure.EvalSQL(prog, db, faure.SQLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := faure.NewSolver(db.Doms)
	nativeAnswers, err := faure.ClassifyAnswers(res1.DB.Table("reach"), s)
	if err != nil {
		t.Fatal(err)
	}
	sqlAnswers, err := faure.ClassifyAnswers(sqlDB.Table("reach"), s)
	if err != nil {
		t.Fatal(err)
	}
	nat := map[string]faure.AnswerStatus{}
	for _, a := range nativeAnswers {
		if a.Status != faure.Impossible {
			nat[key(a.Values)] = a.Status
		}
	}
	sq := map[string]faure.AnswerStatus{}
	for _, a := range sqlAnswers {
		if a.Status != faure.Impossible {
			sq[key(a.Values)] = a.Status
		}
	}
	if len(nat) != len(sq) {
		t.Fatalf("backends disagree on answer count: %d vs %d", len(nat), len(sq))
	}
	for k, st := range nat {
		if sq[k] != st {
			t.Errorf("answer %s: native %v, sql %v", k, st, sq[k])
		}
	}

	// 5. Loss-lessness over the variable pool.
	vars := []string{"x", "y", "z", "l3"}
	mis, err := faure.CheckLossless(prog, db, vars, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mis) != 0 {
		t.Fatalf("loss-lessness violated: %v", mis[0])
	}

	// 6. Failure-pattern query over the reachability output, with
	// provenance recorded.
	q6 := faure.MustParse(`cut(f, a, b) :- reach(f, a, b), $x+$y+$z = 1.`)
	rec := faure.NewProvenance(0)
	res6, err := faure.Eval(q6, res1.DB, faure.WithProvenance(faure.Options{}, rec))
	if err != nil {
		t.Fatal(err)
	}
	if res6.DB.Table("cut").Len() == 0 {
		t.Fatalf("q6 produced nothing")
	}
	exps := faure.NewProvExplainer(rec, res6.DB).ExplainAll("cut")
	if len(exps) == 0 || !strings.Contains(exps[0].String(), "reach(") {
		t.Errorf("q6 derivations should cite reach tuples")
	}

	// 7. Verification ladder on the §5 scenario through the façade.
	v := &faure.Verifier{Doms: faure.EnterpriseDomains(), Schema: faure.EnterpriseSchema()}
	known := []faure.Constraint{faure.Clb(), faure.Cs()}
	u := faure.ListingFourUpdate()
	state := faure.EnterpriseState(false)
	rep, level, err := v.Ladder(faure.T2(), known, &u, state)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != faure.Holds || level != "category-ii" {
		t.Errorf("T2 ladder: %v at %s", rep.Verdict, level)
	}
}

func key(values []faure.Term) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}
