package solver

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"faure/internal/budget"
	"faure/internal/cond"
)

// The fuzz input's modes: the set test must decide in coverNormal and
// stay undecided in every fallback mode whose cause the formulas meet.
const (
	coverNormal    = iota
	coverUnbounded // formulas may use $u, which has no domain
	coverPastSpace // twelve more boolean variables push the world past fdMaxSpace
	coverLate      // formulas may use $late, registered after the world was fixed
	coverNoCache   // SetCacheLimit(0)
	coverModes
)

// coverInput is a fuzz input decoded into a domain map and formulas.
// Byte 0 picks 1–4 boolean variables $a.., an enum $e of 1–4 values and
// the mode; byte 1 the number of formulas (1–5); the rest is read by
// formula, and reads past the end return 0.
type coverInput struct {
	data []byte
	pos  int
	mode int
	doms Domains
	vars []string
}

func decodeCover(data []byte) (*coverInput, []*cond.Formula) {
	in := &coverInput{data: data, doms: Domains{}}
	cfg := in.next()
	for _, name := range []string{"a", "b", "c", "d"}[:cfg&3+1] {
		in.doms[name] = BoolDomain()
		in.vars = append(in.vars, name)
	}
	enum := make([]cond.Term, (cfg>>2)&3+1)
	for i := range enum {
		enum[i] = cond.Int(int64(10 + i))
	}
	in.doms["e"] = EnumDomain(enum...)
	in.vars = append(in.vars, "e")
	in.mode = int(cfg>>4) % coverModes
	switch in.mode {
	case coverUnbounded:
		in.vars = append(in.vars, "u")
	case coverPastSpace:
		for i := 0; i < 12; i++ {
			in.doms[fmt.Sprintf("w%d", i)] = BoolDomain()
		}
	case coverLate:
		in.vars = append(in.vars, "late")
	}
	fs := make([]*cond.Formula, int(in.next())%5+1)
	for i := range fs {
		fs[i] = in.formula(3)
	}
	return in, fs
}

func (in *coverInput) next() byte {
	if in.pos >= len(in.data) {
		return 0
	}
	in.pos++
	return in.data[in.pos-1]
}

func (in *coverInput) cvar() string { return in.vars[int(in.next())%len(in.vars)] }

// value is a constant for an atom over v: one of v's values or one just
// outside its domain.
func (in *coverInput) value(v string) cond.Term {
	if v == "e" {
		return cond.Int(int64(10 + int(in.next())%5))
	}
	return cond.Int(int64(in.next() % 3))
}

func (in *coverInput) formula(depth int) *cond.Formula {
	op := int(in.next())
	if depth == 0 {
		op %= 3
	} else {
		op %= 6
	}
	switch op {
	case 0, 1:
		v := in.cvar()
		rel := cond.Eq
		if op == 1 {
			rel = cond.Ne
		}
		return cond.Compare(cond.CVar(v), rel, in.value(v))
	case 2:
		return cond.Compare(cond.CVar(in.cvar()), cond.Eq, cond.CVar(in.cvar()))
	case 3:
		return cond.Not(in.formula(depth - 1))
	case 4:
		return cond.And(in.formula(depth-1), in.formula(depth-1))
	default:
		return cond.Or(in.formula(depth-1), in.formula(depth-1))
	}
}

// FuzzCoverMatchesImplies adds every decoded formula but the last to a
// Cover and asks whether it covers the last. Whenever the set test
// decides, its answer must equal Implies(last, Or(rest...)) from a
// pure-search solver; in each fallback mode it must stay undecided.
// testdata/fuzz/FuzzCoverMatchesImplies holds one seed per fallback.
func FuzzCoverMatchesImplies(f *testing.F) {
	f.Add([]byte{0x07, 0x02, 0x05, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x02, 0x03})
	f.Add([]byte{0x03, 0x03, 0x04, 0x00, 0x04, 0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0x02, 0x04, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, fs := decodeCover(data)
		rest, last := fs[:len(fs)-1], fs[len(fs)-1]
		s := New(in.doms)
		if in.mode == coverNoCache {
			s.SetCacheLimit(0)
		}
		c := s.NewCover()
		if in.mode == coverLate {
			in.doms["late"] = BoolDomain()
		}
		for _, g := range rest {
			if err := c.Add(g); err != nil {
				t.Fatalf("Add(%v): %v", g, err)
			}
		}
		covered, decided, err := c.Covers(last)
		if err != nil {
			t.Fatalf("Covers(%v): %v", last, err)
		}
		fallback := in.mode == coverPastSpace || in.mode == coverNoCache
		for _, g := range fs {
			if (in.mode == coverUnbounded && slices.Contains(g.CVars(), "u")) ||
				(in.mode == coverLate && slices.Contains(g.CVars(), "late")) {
				fallback = true
			}
		}
		if fallback && decided {
			t.Fatalf("mode %d: the set test decided %v ⇒ ∨%v (covered %v), want a fallback", in.mode, last, rest, covered)
		}
		if !fallback && !decided {
			t.Fatalf("mode %d: the set test left %v ⇒ ∨%v undecided", in.mode, last, rest)
		}
		if !decided {
			return
		}
		oracle := New(in.doms)
		oracle.SetCacheLimit(0)
		want, err := oracle.Implies(last, cond.Or(rest...))
		if err != nil {
			t.Fatalf("the set test decided %v ⇒ ∨%v, where search errs: %v", last, rest, err)
		}
		if covered != want {
			t.Fatalf("%v ⇒ ∨%v: set test %v, search %v", last, rest, covered, want)
		}
	})
}

// TestCoverDiesOutsideFragment: once a formula over an unbounded
// variable is added, the cover no longer represents the disjunction, so
// it must leave every later question to the solver, even one it could
// have answered before.
func TestCoverDiesOutsideFragment(t *testing.T) {
	s := New(boolDoms("a", "b"))
	c := s.NewCover()
	if err := c.Add(atomEq("a", 1)); err != nil {
		t.Fatal(err)
	}
	probe := cond.And(atomEq("a", 0), atomEq("b", 1))
	if covered, decided, err := c.Covers(probe); err != nil || !decided || covered {
		t.Fatalf("before: covered %v decided %v err %v, want decided and not covered", covered, decided, err)
	}
	if err := c.Add(cond.Compare(cond.CVar("u"), cond.Eq, cond.Int(3))); err != nil {
		t.Fatal(err)
	}
	if covered, decided, err := c.Covers(probe); err != nil || decided {
		t.Fatalf("after: covered %v decided %v err %v, want undecided", covered, decided, err)
	}
}

// TestCoverBudget: a set-test decision costs one solver step even when
// every table is memoised, and a budget trip while widening returns
// *budget.Exceeded and memoises no world table.
func TestCoverBudget(t *testing.T) {
	s := New(boolDoms("a", "b", "c"))
	c := s.NewCover()
	if err := c.Add(atomEq("a", 1)); err != nil {
		t.Fatal(err)
	}
	probe := cond.And(atomEq("a", 1), atomEq("b", 1))
	if covered, decided, err := c.Covers(probe); err != nil || !decided || !covered {
		t.Fatalf("covered %v decided %v err %v, want covered", covered, decided, err)
	}
	s.SetBudget(budget.New(context.Background(), budget.Limits{SolverSteps: 3}))
	for i := 0; i < 3; i++ {
		if _, _, err := c.Covers(probe); err != nil {
			t.Fatalf("decision %d of 3: %v", i+1, err)
		}
	}
	if _, _, err := c.Covers(probe); !isBudget(err) {
		t.Fatalf("fourth decision under a 3-step budget: err = %v, want a budget trip", err)
	}

	// Deciding on And(b = 0, c = 0) costs a decision step and one step
	// per new node (the And, each atom and each atom's fd table), so
	// two steps trip it at its first atom.
	fresh := cond.And(atomEq("b", 0), atomEq("c", 0))
	s.SetBudget(budget.New(context.Background(), budget.Limits{SolverSteps: 2}))
	if _, _, err := c.Covers(fresh); !isBudget(err) {
		t.Fatalf("Covers under a 2-step budget: err = %v, want a budget trip", err)
	}
	for _, g := range []*cond.Formula{fresh, atomEq("b", 0), atomEq("c", 0)} {
		if e, ok := s.cache.get(g.ID()); ok && e.wide != nil {
			t.Errorf("%v: world table memoised by a tripped set test", g)
		}
	}
	s.SetBudget(nil)
	if covered, decided, err := c.Covers(fresh); err != nil || !decided || covered {
		t.Fatalf("retry: covered %v decided %v err %v, want decided and not covered", covered, decided, err)
	}
	if e, ok := s.cache.get(fresh.ID()); !ok || e.wide == nil {
		t.Fatal("world table not memoised by a completed set test")
	}
}

func isBudget(err error) bool {
	_, ok := budget.As(err)
	return ok
}

// TestWorldTableEvicted: world tables live on certificate entries, so
// the cache's clock eviction bounds them, and an evicted table is
// rebuilt on demand with the same answer.
func TestWorldTableEvicted(t *testing.T) {
	s := New(boolDoms("a", "b"))
	s.SetCacheLimit(4)
	c := s.NewCover()
	if err := c.Add(atomEq("a", 1)); err != nil {
		t.Fatal(err)
	}
	probe := cond.And(atomEq("a", 1), atomEq("b", 0))
	if covered, _, err := c.Covers(probe); err != nil || !covered {
		t.Fatalf("covered %v err %v", covered, err)
	}
	for i := 0; i < 8; i++ {
		mustSat(t, s, distinctFormula(i))
	}
	if s.cache.len() > 4 {
		t.Fatalf("cache holds %d entries past its limit of 4", s.cache.len())
	}
	if e, ok := s.cache.get(probe.ID()); ok && e.wide != nil {
		t.Fatal("world table survived the eviction of its entry")
	}
	if covered, decided, err := c.Covers(probe); err != nil || !decided || !covered {
		t.Fatalf("after eviction: covered %v decided %v err %v", covered, decided, err)
	}
}
