package solver

import (
	"testing"

	"faure/internal/cond"
)

// resetStats zeroes a solver's counters, keeping its cache.
func resetStats(s *Solver) { s.stats = Stats{} }

// distinctFormula builds the i-th member of a family of semantically
// distinct formulas over one unbounded variable (x = i).
func distinctFormula(i int) *cond.Formula {
	return cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(int64(i)))
}

// TestCacheEviction checks that the memo keeps absorbing new formulas
// past its limit by evicting old entries instead of refusing inserts.
func TestCacheEviction(t *testing.T) {
	s := New(Domains{})
	const limit = 8
	s.SetCacheLimit(limit)
	for i := 0; i < 4*limit; i++ {
		mustSat(t, s, distinctFormula(i))
	}
	if got := s.cache.len(); got != limit {
		t.Fatalf("cache len = %d, want exactly the limit %d", got, limit)
	}
	// The most recent formulas must still be cached: re-deciding the
	// last `limit` entries should be pure hits.
	resetStats(s)
	for i := 3 * limit; i < 4*limit; i++ {
		mustSat(t, s, distinctFormula(i))
	}
	if st := s.Stats(); st.CacheHits != limit {
		t.Fatalf("recent formulas not retained: %d hits of %d", st.CacheHits, limit)
	}
	// The oldest ones were evicted: deciding them again is a miss that
	// inserts (evicting in turn), never an error or a refused insert.
	resetStats(s)
	mustSat(t, s, distinctFormula(0))
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("evicted formula unexpectedly hit the cache")
	}
	if got := s.cache.len(); got != limit {
		t.Fatalf("cache len after churn = %d, want %d", got, limit)
	}
}

// TestCacheDisabled keeps the SetCacheLimit(0) ablation contract: no
// memoisation at all.
func TestCacheDisabled(t *testing.T) {
	s := New(Domains{})
	s.SetCacheLimit(0)
	f := distinctFormula(7)
	mustSat(t, s, f)
	mustSat(t, s, f)
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("disabled cache produced %d hits", st.CacheHits)
	}
	if s.cache.len() != 0 {
		t.Fatalf("disabled cache stored %d entries", s.cache.len())
	}
}

// TestMemoKeysAreCanonical guards the assumption that distinct
// formula values with equal keys share one memo slot.
func TestMemoKeysAreCanonical(t *testing.T) {
	s := New(Domains{})
	f := cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(5))
	g := cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(5))
	if f == g {
		t.Skip("interned formulas; nothing to check")
	}
	if f.Key() != g.Key() {
		t.Fatalf("equal formulas with distinct keys: %q vs %q", f.Key(), g.Key())
	}
	mustSat(t, s, f)
	resetStats(s)
	mustSat(t, s, g)
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("structurally equal formula missed the cache (%d hits)", st.CacheHits)
	}
}
