package relstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

// TestConcurrentReads exercises the package's phased concurrency
// contract: many goroutines probing and scanning a frozen relation must
// not race (counters are atomic, indexes are read-only). Run with
// -race.
func TestConcurrentReads(t *testing.T) {
	r := NewRelation("fwd", 2)
	for i := 0; i < 64; i++ {
		var v cond.Term
		if i%4 == 0 {
			v = cond.CVar("x")
		} else {
			v = cond.Int(int64(i % 8))
		}
		if err := r.Insert(ctable.NewTuple([]cond.Term{v, cond.Int(int64(i))}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, idx := range r.Candidates(0, cond.Int(int64(i%8))) {
					_ = r.Tuple(idx)
				}
				if i%10 == 0 {
					for _, idx := range r.All() {
						_ = r.Tuple(idx)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.ProbeCount() == 0 || r.ScanCount() == 0 {
		t.Fatalf("expected non-zero probe and scan counts, got %d / %d", r.ProbeCount(), r.ScanCount())
	}
}

// lazyFixtureTuple is the i-th tuple of the lazy-index fixture: three
// columns mixing repeated constants of both kinds with c-variables.
func lazyFixtureTuple(i int) ctable.Tuple {
	vals := make([]cond.Term, 3)
	for c := range vals {
		switch {
		case (i+c)%5 == 0:
			vals[c] = cond.CVar(fmt.Sprintf("v%d", i%3))
		case c == 1:
			vals[c] = cond.Str(fmt.Sprintf("S%d", i%7))
		default:
			vals[c] = cond.Int(int64((i * (c + 1)) % 6))
		}
	}
	return ctable.NewTuple(vals, nil)
}

// lazyProbes runs every kind of index read against r and renders the
// results, so two relations holding the same tuples can be compared.
func lazyProbes(r *Relation) string {
	keys := []cond.Term{cond.Int(0), cond.Int(3), cond.Int(5), cond.Str("S2"), cond.Str("S6"), cond.Str("none")}
	var b strings.Builder
	for c := 0; c < r.Arity; c++ {
		fmt.Fprintf(&b, "stats %d %+v\n", c, r.ColStats(c))
		for _, k := range keys {
			fmt.Fprintf(&b, "cand %d %v %v\n", c, k, r.Candidates(c, k))
		}
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "multi %v %v\n", k, r.CandidatesMulti([]int{0, 1, 2}, []cond.Term{k, cond.Str("S2"), k}))
		fmt.Fprintf(&b, "multi2 %v %v\n", k, r.CandidatesMulti([]int{2, 0}, []cond.Term{k, cond.Int(3)}))
	}
	return b.String()
}

// TestConcurrentLazyIndexBuild races first probes of unbuilt columns:
// many goroutines released together read a fresh relation through
// Candidates, CandidatesMulti and ColStats, each starting at a
// different column, and every result must equal the eagerly indexed
// reference (all columns built, one goroutine). An Insert between two
// rounds must keep the built columns current and leave the rest to be
// built from the grown tuple list. Run with -race.
func TestConcurrentLazyIndexBuild(t *testing.T) {
	const n, extra = 200, 40
	eager := NewRelation("r", 3)
	for i := 0; i < n; i++ {
		if err := eager.Insert(lazyFixtureTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < eager.Arity; c++ {
		eager.ColStats(c) // build every column up front
	}
	want := lazyProbes(eager)
	for i := n; i < n+extra; i++ {
		if err := eager.Insert(lazyFixtureTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantGrown := lazyProbes(eager)

	race := func(r *Relation, want string, firstCols []int) {
		t.Helper()
		start := make(chan struct{})
		got := make([]string, 16)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				// Each goroutine's first read targets a column that may
				// not be built yet, through a different entry point.
				c := firstCols[w%len(firstCols)]
				switch w % 3 {
				case 0:
					r.Candidates(c, cond.Int(3))
				case 1:
					r.CandidatesMulti([]int{c}, []cond.Term{cond.Str("S2")})
				default:
					r.ColStats(c)
				}
				got[w] = lazyProbes(r)
			}(w)
		}
		close(start)
		wg.Wait()
		for w, g := range got {
			if g != want {
				t.Fatalf("goroutine %d: lazily indexed results differ from the eager reference\ngot:\n%s\nwant:\n%s", w, g, want)
			}
		}
	}
	for round := 0; round < 10; round++ {
		tbl := &ctable.Table{Schema: ctable.Schema{Name: "r", Attrs: []string{"a", "b", "c"}}}
		for i := 0; i < n; i++ {
			tbl.Tuples = append(tbl.Tuples, lazyFixtureTuple(i))
		}
		lazy := FromTable(tbl)
		race(lazy, want, []int{0, 2, 1})
		for i := n; i < n+extra; i++ {
			if err := lazy.Insert(lazyFixtureTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		race(lazy, wantGrown, []int{2, 1, 0})
	}
	// A relation whose columns are never probed before the insert builds
	// them from the grown list.
	tbl := &ctable.Table{Schema: ctable.Schema{Name: "r", Attrs: []string{"a", "b", "c"}}}
	for i := 0; i < n; i++ {
		tbl.Tuples = append(tbl.Tuples, lazyFixtureTuple(i))
	}
	late := FromTable(tbl)
	for i := n; i < n+extra; i++ {
		if err := late.Insert(lazyFixtureTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	race(late, wantGrown, []int{1})
}
