package cond

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randGroundable builds a random formula over two {0,1}-valued
// variables a, b; substituting both always grounds it.
func randGroundable(r *rand.Rand, depth int) *Formula {
	v := func() Term {
		if r.Intn(2) == 0 {
			return CVar("a")
		}
		return CVar("b")
	}
	if depth == 0 || r.Intn(3) == 0 {
		return Compare(v(), Op(r.Intn(2)), Int(int64(r.Intn(2)))) // Eq or Ne
	}
	switch r.Intn(3) {
	case 0:
		return And(randGroundable(r, depth-1), randGroundable(r, depth-1))
	case 1:
		return Or(randGroundable(r, depth-1), randGroundable(r, depth-1))
	default:
		return Not(randGroundable(r, depth-1))
	}
}

func evalAt(t *testing.T, f *Formula, a, b int64) bool {
	t.Helper()
	g := f.Subst(map[string]Term{"a": Int(a), "b": Int(b)})
	if !g.IsTrue() && !g.IsFalse() {
		t.Fatalf("formula %v not ground after substitution: %v", f, g)
	}
	return g.IsTrue()
}

// TestDeMorganSemantics: ¬(f ∧ g) ≡ ¬f ∨ ¬g on all assignments.
func TestDeMorganSemantics(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randGroundable(r, 2)
		g := randGroundable(r, 2)
		lhs := Not(And(f, g))
		rhs := Or(Not(f), Not(g))
		for _, a := range []int64{0, 1} {
			for _, b := range []int64{0, 1} {
				if evalAt(t, lhs, a, b) != evalAt(t, rhs, a, b) {
					t.Errorf("seed %d: De Morgan violated at a=%d b=%d for %v", seed, a, b, f)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNotInvolutionSemantics: ¬¬f ≡ f on all assignments.
func TestNotInvolutionSemantics(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randGroundable(r, 3)
		nn := Not(Not(f))
		for _, a := range []int64{0, 1} {
			for _, b := range []int64{0, 1} {
				if evalAt(t, f, a, b) != evalAt(t, nn, a, b) {
					t.Errorf("seed %d: double negation changed semantics", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKeyCanonicalUnderShuffle: the canonical key is insensitive to
// argument order of And/Or.
func TestKeyCanonicalUnderShuffle(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		parts := make([]*Formula, 3+r.Intn(3))
		for i := range parts {
			parts[i] = randGroundable(r, 1)
		}
		shuffled := make([]*Formula, len(parts))
		copy(shuffled, parts)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if And(parts...).Key() != And(shuffled...).Key() {
			t.Errorf("seed %d: And key depends on order", seed)
			return false
		}
		if Or(parts...).Key() != Or(shuffled...).Key() {
			t.Errorf("seed %d: Or key depends on order", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSubstComposition: substituting a then b equals substituting both
// at once (disjoint variables).
func TestSubstComposition(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randGroundable(r, 3)
		a, b := Int(int64(r.Intn(2))), Int(int64(r.Intn(2)))
		step := f.Subst(map[string]Term{"a": a}).Subst(map[string]Term{"b": b})
		both := f.Subst(map[string]Term{"a": a, "b": b})
		if step.Key() != both.Key() {
			t.Errorf("seed %d: substitution composition differs: %v vs %v", seed, step, both)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSimplificationPreservesSemantics: the constructors' rewrites
// (flattening, dedup, complement elimination, ground folding) never
// change the truth table. Atoms use all six operators over three
// constants, so duplicates and complements (x < 1 against x >= 1) are
// common. Some nodes fan out past combine's stack buffer
// (stackChildren); their children are clauses of the other connective,
// nested nodes of the same kind that flatten into them, and repeats
// and negations of earlier children, which meet their twins only in
// the flattened list.
func TestSimplificationPreservesSemantics(t *testing.T) {
	// Build the same formula twice: once through constructors, once
	// "raw" by evaluating the intended boolean structure directly.
	type node struct {
		op   int // 0 atom, 1 and, 2 or, 3 not
		atom Atom
		kids []*node
	}
	vars := []string{"a", "b", "c", "d"}
	vals := []int64{0, 1, 2}
	atom := func(r *rand.Rand) *node {
		v := CVar(vars[r.Intn(len(vars))])
		return &node{op: 0, atom: NewAtom(v, Op(r.Intn(6)), Int(vals[r.Intn(len(vals))]))}
	}
	// clause is a node of connective op over 3-4 atoms: under And it
	// is false, under Or true, at about one assignment in ten, so a
	// wide node of clauses depends on each of them.
	clause := func(r *rand.Rand, op int) *node {
		n := &node{op: op}
		for i := 3 + r.Intn(2); i > 0; i-- {
			n.kids = append(n.kids, atom(r))
		}
		return n
	}
	wide := func(r *rand.Rand, op int) *node {
		other := 3 - op // and (1) and or (2) swap
		n := &node{op: op}
		for i := stackChildren + 1 + r.Intn(stackChildren); i > 0; i-- {
			var k *node
			switch x := r.Intn(64); {
			case x < 8 && len(n.kids) > 0: // a repeat of an earlier child
				k = n.kids[r.Intn(len(n.kids))]
			case x == 8 && len(n.kids) > 0: // the negation of one
				k = &node{op: 3, kids: []*node{n.kids[r.Intn(len(n.kids))]}}
			case x < 16: // a nested node of n's kind, flattened into n
				k = &node{op: op, kids: []*node{clause(r, other), clause(r, other)}}
			default:
				k = clause(r, other)
			}
			n.kids = append(n.kids, k)
		}
		return n
	}
	var gen func(r *rand.Rand, depth int) *node
	gen = func(r *rand.Rand, depth int) *node {
		if depth == 0 || r.Intn(3) == 0 {
			return atom(r)
		}
		n := &node{op: 1 + r.Intn(3)}
		if n.op != 3 && r.Intn(4) == 0 {
			return wide(r, n.op)
		}
		k := 1
		if n.op != 3 {
			k = 2 + r.Intn(2)
		}
		for i := 0; i < k; i++ {
			n.kids = append(n.kids, gen(r, depth-1))
		}
		return n
	}
	var build func(n *node) *Formula
	build = func(n *node) *Formula {
		if n.op == 0 {
			return AtomF(n.atom)
		}
		fs := make([]*Formula, len(n.kids))
		for i, k := range n.kids {
			fs[i] = build(k)
		}
		switch n.op {
		case 1:
			return And(fs...)
		case 2:
			return Or(fs...)
		}
		return Not(fs[0])
	}
	var truth func(n *node, m map[string]Term) bool
	truth = func(n *node, m map[string]Term) bool {
		switch n.op {
		case 0:
			v, err := n.atom.Subst(m).EvalGround()
			if err != nil {
				t.Fatal(err)
			}
			return v
		case 1:
			for _, k := range n.kids {
				if !truth(k, m) {
					return false
				}
			}
			return true
		case 2:
			for _, k := range n.kids {
				if truth(k, m) {
					return true
				}
			}
			return false
		default:
			return !truth(n.kids[0], m)
		}
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := gen(r, 3)
		f := build(n)
		for i := 0; i < 81; i++ { // every assignment of vals to vars
			m := map[string]Term{}
			for j, x := 0, i; j < len(vars); j, x = j+1, x/3 {
				m[vars[j]] = Int(vals[x%3])
			}
			g := f.Subst(m)
			if !g.IsTrue() && !g.IsFalse() {
				t.Fatalf("seed %d: %v not ground after substitution: %v", seed, f, g)
			}
			if g.IsTrue() != truth(n, m) {
				t.Errorf("seed %d: simplification changed semantics at %v", seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
