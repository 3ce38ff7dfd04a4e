package cond

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInternPointerIdentity: structurally identical formulas built
// separately are the same pointer, at every level of the DAG.
func TestInternPointerIdentity(t *testing.T) {
	mk := func() *Formula {
		return And(
			Compare(CVar("x"), Eq, Str("Mkt")),
			Or(Compare(CVar("p"), Lt, Int(7000)), Compare(CVar("y"), Ne, Int(1))),
		)
	}
	f, g := mk(), mk()
	if f != g {
		t.Fatalf("identical constructions returned distinct pointers:\n%v\n%v", f, g)
	}
	// Sub-formulas are shared too: the Or child of a fresh enclosing And
	// is the same node.
	h := And(Compare(CVar("z"), Gt, Int(3)),
		Or(Compare(CVar("p"), Lt, Int(7000)), Compare(CVar("y"), Ne, Int(1))))
	var orChild *Formula
	for _, s := range h.Sub {
		if s.Kind == FOr {
			orChild = s
		}
	}
	if orChild == nil {
		t.Fatal("Or child missing")
	}
	found := false
	for _, s := range f.Sub {
		if s == orChild {
			found = true
		}
	}
	if !found {
		t.Errorf("Or sub-formula not shared across enclosing formulas")
	}
}

// TestInternConstructionOrder: And/Or are order-insensitive after
// canonicalisation, so permuted construction orders intern to the same
// node.
func TestInternConstructionOrder(t *testing.T) {
	a := Compare(CVar("x"), Eq, Int(1))
	b := Compare(CVar("y"), Ne, Str("A"))
	c := Compare(CVar("z"), Lt, Int(5))
	f := And(a, b, c)
	for _, perm := range [][]*Formula{{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
		if g := And(perm...); g != f {
			t.Errorf("permuted And returned different node: %v vs %v", g, f)
		}
	}
	// Nesting flattens to the same node as well.
	if g := And(And(a, b), c); g != f {
		t.Errorf("nested And returned different node: %v vs %v", g, f)
	}
	if g := And(c, And(b, a)); g != f {
		t.Errorf("nested And returned different node: %v vs %v", g, f)
	}
}

// TestInternKeyStable: the lazy key is identical however the formula
// was constructed, and repeated calls return the same string.
func TestInternKeyStable(t *testing.T) {
	a := Compare(CVar("x"), Eq, Int(1))
	b := Compare(CVar("y"), Ne, Str("A"))
	f := Or(a, b)
	g := Or(b, a)
	if f.Key() != g.Key() {
		t.Errorf("keys differ for same canonical formula: %q vs %q", f.Key(), g.Key())
	}
	if k1, k2 := f.Key(), f.Key(); k1 != k2 {
		t.Errorf("Key not stable: %q vs %q", k1, k2)
	}
}

// TestInternStatsCounters: constructing a brand-new formula counts a
// miss and grows the live gauge; re-constructing it counts a hit.
// internStatsRuns numbers TestInternStatsCounters' runs, so each run
// (under -count=N too) builds a formula no earlier run interned.
var internStatsRuns atomic.Int64

func TestInternStatsCounters(t *testing.T) {
	run := internStatsRuns.Add(1)
	mk := func() *Formula {
		return And(Compare(CVar("statvar1"), Eq, Int(run)), Compare(CVar("statvar2"), Gt, Int(40)))
	}
	before := InternStatsNow()
	f := mk()
	mid := InternStatsNow()
	if mid.Misses <= before.Misses {
		t.Errorf("fresh construction did not count a miss: %+v -> %+v", before, mid)
	}
	if mid.Live <= before.Live {
		t.Errorf("fresh construction did not grow live gauge: %+v -> %+v", before, mid)
	}
	g := mk()
	after := InternStatsNow()
	if g != f {
		t.Fatal("re-construction returned a different pointer")
	}
	if after.Hits <= mid.Hits {
		t.Errorf("re-construction did not count a hit: %+v -> %+v", mid, after)
	}
	if after.Live != mid.Live {
		t.Errorf("re-construction changed live gauge: %+v -> %+v", mid, after)
	}
	if after.Evictions != 0 {
		t.Errorf("evictions should be 0 under the no-reclaim policy, got %d", after.Evictions)
	}
}

// TestInternConcurrent: racing goroutines building the same formulas
// agree on one canonical pointer per formula (run under -race in CI).
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	const formulas = 64
	results := make([][]*Formula, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*Formula, formulas)
			for i := range out {
				out[i] = buildFormula(rand.New(rand.NewSource(int64(i))), 3)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got a different node for formula %d", g, i)
			}
		}
	}
}

// buildFormula builds a deterministic pseudo-random formula of bounded
// depth from rng. The same rng stream always yields the same canonical
// formula.
func buildFormula(rng *rand.Rand, depth int) *Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		return randomAtom(rng)
	}
	switch rng.Intn(3) {
	case 0:
		return Not(buildFormula(rng, depth-1))
	case 1:
		n := 2 + rng.Intn(3)
		sub := make([]*Formula, n)
		for i := range sub {
			sub[i] = buildFormula(rng, depth-1)
		}
		return And(sub...)
	default:
		n := 2 + rng.Intn(3)
		sub := make([]*Formula, n)
		for i := range sub {
			sub[i] = buildFormula(rng, depth-1)
		}
		return Or(sub...)
	}
}

func randomAtom(rng *rand.Rand) *Formula {
	vars := []string{"x", "y", "z", "p", "q"}
	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	l := CVar(vars[rng.Intn(len(vars))])
	op := ops[rng.Intn(len(ops))]
	var r Term
	switch rng.Intn(3) {
	case 0:
		r = Int(int64(rng.Intn(10)))
	case 1:
		r = Str([]string{"A", "B", "Mkt"}[rng.Intn(3)])
	default:
		r = CVar(vars[rng.Intn(len(vars))])
	}
	return Compare(l, op, r)
}

// FuzzInternOrder asserts intern soundness: two construction orders of
// the same flattened/deduped/sorted formula yield the identical
// pointer, and the lazy Key round-trips unchanged across both.
func FuzzInternOrder(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(99))
	f.Add(int64(-7), int64(7))
	f.Fuzz(func(t *testing.T, seed, permSeed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		parts := make([]*Formula, n)
		for i := range parts {
			parts[i] = buildFormula(rng, 2)
		}
		// Build once in given order, once in a permuted order (with a
		// duplicate thrown in — dedup must not change identity).
		perm := rand.New(rand.NewSource(permSeed)).Perm(n)
		shuffled := make([]*Formula, 0, n+1)
		for _, p := range perm {
			shuffled = append(shuffled, parts[p])
		}
		shuffled = append(shuffled, parts[0])

		andA, andB := And(parts...), And(shuffled...)
		if andA != andB {
			t.Fatalf("And order-dependent:\n%v\n%v", andA, andB)
		}
		orA, orB := Or(parts...), Or(shuffled...)
		if orA != orB {
			t.Fatalf("Or order-dependent:\n%v\n%v", orA, orB)
		}
		// Key round-trip: identical across construction orders, stable
		// across calls, and consistent with pointer identity.
		if andA.Key() != andB.Key() {
			t.Fatalf("Key differs across construction orders: %q vs %q", andA.Key(), andB.Key())
		}
		if k1, k2 := orA.Key(), orA.Key(); k1 != k2 {
			t.Fatalf("Key unstable: %q vs %q", k1, k2)
		}
		// Rebuilding from the canonical children must be a fixpoint.
		if andA.Kind == FAnd {
			if again := And(andA.Sub...); again != andA {
				t.Fatalf("re-canonicalisation not a fixpoint: %v vs %v", again, andA)
			}
		}
	})
}
