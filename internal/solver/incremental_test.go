package solver

import (
	"context"
	"math/rand"
	"testing"

	"faure/internal/budget"
	"faure/internal/cond"
)

func atomEq(name string, v int64) *cond.Formula {
	return cond.Compare(cond.CVar(name), cond.Eq, cond.Int(v))
}

// TestFDFastPathAgrees spot-checks the compiled finite-domain fast
// path against the pure-search baseline on the shapes the fauré
// workloads generate: boolean link variables, an enum path variable,
// negation, and linear sums.
func TestFDFastPathAgrees(t *testing.T) {
	doms := Domains{
		"x": BoolDomain(), "y": BoolDomain(), "z": BoolDomain(),
		"p": EnumDomain(cond.Str("r1"), cond.Str("r2"), cond.Str("r3")),
	}
	cases := []*cond.Formula{
		atomEq("x", 1),
		cond.And(atomEq("x", 1), atomEq("x", 0)), // unsat
		cond.Or(atomEq("x", 0), atomEq("x", 1)),  // valid
		cond.And(atomEq("x", 1), cond.Or(atomEq("y", 0), atomEq("z", 1))),
		cond.Not(cond.And(atomEq("x", 1), atomEq("y", 1))),
		cond.And(cond.Compare(cond.CVar("p"), cond.Eq, cond.Str("r2")), atomEq("x", 1)),
		cond.Or(
			cond.Compare(cond.CVar("p"), cond.Ne, cond.Str("r1")),
			cond.Not(atomEq("y", 0)),
		),
		// Linear sum over {0,1} links: at most one failure.
		cond.AtomF(cond.NewSumAtom([]cond.Term{cond.CVar("x"), cond.CVar("y"), cond.CVar("z")}, cond.Le, cond.Int(1))),
		cond.And(
			cond.AtomF(cond.NewSumAtom([]cond.Term{cond.CVar("x"), cond.CVar("y")}, cond.Ge, cond.Int(2))),
			atomEq("x", 0), // contradicts the sum
		),
	}
	for _, f := range cases {
		fast := New(doms)
		slow := New(doms)
		slow.SetCacheLimit(0)
		gotSat, errF := fast.Satisfiable(f)
		wantSat, errS := slow.Satisfiable(f)
		if (errF != nil) != (errS != nil) {
			t.Fatalf("%v: error divergence: fast=%v slow=%v", f, errF, errS)
		}
		if gotSat != wantSat {
			t.Fatalf("%v: fast sat=%v, search sat=%v", f, gotSat, wantSat)
		}
		gotV, errF := fast.Valid(f)
		wantV, errS := slow.Valid(f)
		if (errF != nil) != (errS != nil) || gotV != wantV {
			t.Fatalf("%v: Valid divergence: fast=%v/%v slow=%v/%v", f, gotV, errF, wantV, errS)
		}
		if st := fast.Stats(); st.EnumNodes != 0 || st.DPLLNodes != 0 {
			t.Fatalf("%v: fast path reached search (%d enum, %d dpll nodes)", f, st.EnumNodes, st.DPLLNodes)
		}
	}
}

// TestValidFromCertificate: deciding satisfiability through the fd
// fast path records validity too, so a later Valid call is free.
func TestValidFromCertificate(t *testing.T) {
	s := New(boolDoms("x"))
	tautology := cond.Or(atomEq("x", 0), atomEq("x", 1))
	mustSat(t, s, tautology)
	resetStats(s)
	ok, err := s.Valid(tautology)
	if err != nil || !ok {
		t.Fatalf("Valid = %v, %v; want valid", ok, err)
	}
	if st := s.Stats(); st.CertHits != 1 || st.EnumNodes != 0 || st.FDNodes != 0 {
		t.Fatalf("Valid did not answer from the certificate: %+v", st)
	}
	falsifiable := atomEq("x", 1)
	mustSat(t, s, falsifiable)
	resetStats(s)
	ok, err = s.Valid(falsifiable)
	if err != nil || ok {
		t.Fatalf("Valid = %v, %v; want falsifiable", ok, err)
	}
	if st := s.Stats(); st.CertHits != 1 {
		t.Fatalf("falsifiability not answered from the certificate: %+v", st)
	}
}

// TestTinyCacheFDStaysCorrect runs the fd fast path with a cache far
// smaller than the formula's node count: eviction must not change the
// answer, because a compilation holds the child tables it was handed.
func TestTinyCacheFDStaysCorrect(t *testing.T) {
	doms := boolDoms("a", "b", "c", "d")
	f := cond.Or(
		cond.And(atomEq("a", 1), atomEq("b", 0)),
		cond.And(atomEq("c", 1), atomEq("d", 0)),
		cond.Not(cond.Or(atomEq("b", 1), atomEq("d", 1))),
	)
	small := New(doms)
	small.SetCacheLimit(2)
	slow := New(doms)
	slow.SetCacheLimit(0)
	gotSat, err1 := small.Satisfiable(f)
	wantSat, err2 := slow.Satisfiable(f)
	if err1 != nil || err2 != nil || gotSat != wantSat {
		t.Fatalf("tiny-cache fd diverged: got %v/%v want %v/%v", gotSat, err1, wantSat, err2)
	}
}

// TestBudgetTripMidCompile: a budget trip inside fd compilation
// surfaces as the budget error, never caches the failing node, but
// keeps the completed child certificates for a retry.
func TestBudgetTripMidCompile(t *testing.T) {
	s := New(boolDoms("a", "b", "c"))
	childA := atomEq("a", 1)
	f := cond.And(childA, atomEq("b", 1), atomEq("c", 1))
	s.SetBudget(budget.New(context.Background(), budget.Limits{SolverSteps: 2}))
	_, err := s.Satisfiable(f)
	if _, ok := budget.As(err); !ok {
		t.Fatalf("want a budget trip, got %v", err)
	}
	if e, ok := s.cache.get(f.ID()); ok && e.decidedSat() {
		t.Fatal("budget-tripped decision was cached")
	}
	if e, ok := s.cache.get(childA.ID()); !ok || e.fd == nil {
		t.Fatal("completed child table was not kept for retry")
	}
	// A fresh budget resumes from the kept children and decides.
	s.SetBudget(nil)
	if !mustSat(t, s, f) {
		t.Fatal("formula should be sat after the retry")
	}
}

// TestMemoEvictionsCounter: a bounded certificate cache counts its
// clock evictions in Stats.Evictions, which the engine surfaces as
// MemoEvictions.
func TestMemoEvictionsCounter(t *testing.T) {
	s := New(Domains{})
	s.SetCacheLimit(4)
	for i := 0; i < 10; i++ {
		mustSat(t, s, distinctFormula(i))
	}
	if got := s.cache.len(); got != 4 {
		t.Fatalf("cache len = %d, want the limit 4", got)
	}
	if got := s.Stats().Evictions; got != 6 {
		t.Fatalf("evictions = %d, want 6", got)
	}
}

// TestDifferentialFuzz is the cached solver's agreement contract: on
// random formulas over mixed bool/enum domains and an unbounded
// variable, the solver with its cache and compiled tables and the
// cache-disabled pure-search baseline must agree on Satisfiable, Valid
// and Implies — including whether they error. Formulas over the
// unbounded variable reach search on both sides. Seeds are fixed, so a
// failure names a reproducible formula.
func TestDifferentialFuzz(t *testing.T) {
	doms := Domains{
		"a": BoolDomain(), "b": BoolDomain(), "c": BoolDomain(),
		"p": EnumDomain(cond.Str("r1"), cond.Str("r2"), cond.Str("r3")),
		"q": EnumDomain(cond.Int(1), cond.Int(2), cond.Int(3), cond.Int(4)),
	}
	var fastHits, searches int
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast := New(doms)
		slow := New(doms)
		slow.SetCacheLimit(0)
		for i := 0; i < 50; i++ {
			f := randFDFormula(rng, 3)
			gotSat, errF := fast.Satisfiable(f)
			wantSat, errS := slow.Satisfiable(f)
			if (errF != nil) != (errS != nil) || gotSat != wantSat {
				t.Fatalf("seed %d #%d %v: fast %v/%v, search %v/%v", seed, i, f, gotSat, errF, wantSat, errS)
			}
			gotV, errF := fast.Valid(f)
			wantV, errS := slow.Valid(f)
			if (errF != nil) != (errS != nil) || gotV != wantV {
				t.Fatalf("seed %d #%d Valid %v: fast %v/%v, search %v/%v", seed, i, f, gotV, errF, wantV, errS)
			}
			// Conjoin one fresh atom onto the just-decided condition, the
			// shape of a semi-naive join round.
			ext := cond.And(f, randFDFormula(rng, 0))
			gotSat, errF = fast.Satisfiable(ext)
			wantSat, errS = slow.Satisfiable(ext)
			if (errF != nil) != (errS != nil) || gotSat != wantSat {
				t.Fatalf("seed %d #%d ext %v: fast %v/%v, search %v/%v", seed, i, ext, gotSat, errF, wantSat, errS)
			}
			gotI, errF := fast.Implies(f, ext)
			wantI, errS := slow.Implies(f, ext)
			if (errF != nil) != (errS != nil) || gotI != wantI {
				t.Fatalf("seed %d #%d %v ⇒ %v: fast %v/%v, search %v/%v", seed, i, f, ext, gotI, errF, wantI, errS)
			}
		}
		fastHits += fast.Stats().FastPathHits
		searches += fast.Stats().Searches()
	}
	if fastHits == 0 || searches == 0 {
		t.Fatalf("the cached solver decided %d formulas by table and %d by search; the inputs must reach both", fastHits, searches)
	}
}

func randFDTerm(rng *rand.Rand) cond.Term {
	switch rng.Intn(8) {
	case 0:
		return cond.CVar("a")
	case 1:
		return cond.CVar("b")
	case 2:
		return cond.CVar("c")
	case 3:
		return cond.CVar("q")
	case 4:
		return cond.CVar("p")
	case 5:
		return cond.CVar("u") // unbounded: no domain
	case 6:
		return cond.Int(int64(rng.Intn(4)))
	default:
		return cond.Str([]string{"r1", "r2", "r3"}[rng.Intn(3)])
	}
}

func randFDFormula(rng *rand.Rand, depth int) *cond.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(6) == 0 {
			// Linear sum over the {0,1} link variables.
			sum := []cond.Term{cond.CVar("a"), cond.CVar("b")}
			if rng.Intn(2) == 0 {
				sum = append(sum, cond.CVar("c"))
			}
			ops := []cond.Op{cond.Le, cond.Ge, cond.Eq}
			return cond.AtomF(cond.NewSumAtom(sum, ops[rng.Intn(len(ops))], cond.Int(int64(rng.Intn(3)))))
		}
		ops := []cond.Op{cond.Eq, cond.Ne, cond.Lt, cond.Le, cond.Gt, cond.Ge}
		return cond.Compare(randFDTerm(rng), ops[rng.Intn(len(ops))], randFDTerm(rng))
	}
	switch rng.Intn(3) {
	case 0:
		return cond.Not(randFDFormula(rng, depth-1))
	case 1:
		return cond.And(randFDFormula(rng, depth-1), randFDFormula(rng, depth-1))
	default:
		return cond.Or(randFDFormula(rng, depth-1), randFDFormula(rng, depth-1))
	}
}
