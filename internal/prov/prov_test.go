package prov

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

// tup builds a one-column tuple over an int constant.
func tup(v int) ctable.Tuple {
	return ctable.NewTuple([]cond.Term{cond.Int(int64(v))}, cond.True())
}

func TestRecorderFirstDerivationWins(t *testing.T) {
	r := NewRecorder(0)
	key := tup(1).Identity()
	r.Record("p", key, r.InternRule("rule-a"), 0, 0, nil)
	r.Record("p", key, r.InternRule("rule-b"), 0, 1, nil)
	e, ok := r.Lookup("p", key)
	if !ok {
		t.Fatal("edge not found")
	}
	if e.Rule != "rule-a" || e.Round != 0 {
		t.Fatalf("later re-derivation overwrote the first edge: %+v", e)
	}
	if s := r.Stats(); s.Recorded != 1 || s.Live != 1 {
		t.Fatalf("stats after duplicate record: %+v", s)
	}
}

func TestRecorderParentsAndNegSideTable(t *testing.T) {
	r := NewRecorder(0)
	parent := tup(10)
	negPat := ctable.NewTuple([]cond.Term{cond.Int(7)}, cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(1)))
	key := tup(1).Identity()
	r.Record("q", key, r.InternRule("q :- p, not r."), 2, 3, []SourceRef{
		{Pred: "p", Key: parent.Identity()},
		{Pred: "r", Key: negPat.Identity(), Negated: true, Tuple: negPat},
	})
	e, ok := r.Lookup("q", key)
	if !ok {
		t.Fatal("edge not found")
	}
	if len(e.Parents) != 2 || e.Parents[0].Pred != "p" || !e.Parents[1].Negated {
		t.Fatalf("parents: %+v", e.Parents)
	}
	if e.Stratum != 2 || e.Round != 3 {
		t.Fatalf("edge coordinates: %+v", e)
	}
	got, ok := r.NegTuple("r", negPat.Identity())
	if !ok || got.String() != negPat.String() {
		t.Fatalf("negated pattern tuple not kept: %v %v", ok, got)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	const capacity = 4
	r := NewRecorder(capacity)
	for i := 0; i < 10; i++ {
		r.Record("p", tup(i).Identity(), r.InternRule("r"), 0, i, []SourceRef{{Pred: "e", Key: tup(100 + i).Identity()}})
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("ring holds %d edges, want %d", got, capacity)
	}
	s := r.Stats()
	if s.Recorded != 10 || s.Evicted != 6 || s.Live != capacity {
		t.Fatalf("ring stats: %+v", s)
	}
	// Oldest six evicted: lookups must fail for 0..5 and succeed, in
	// insertion order, for 6..9.
	for i := 0; i < 6; i++ {
		if _, ok := r.Lookup("p", tup(i).Identity()); ok {
			t.Fatalf("evicted edge %d still indexed", i)
		}
	}
	var rounds []int
	r.Each(func(e Edge) bool {
		rounds = append(rounds, e.Round)
		if len(e.Parents) != 1 {
			t.Fatalf("edge %v lost its parents after eviction", e)
		}
		return true
	})
	if fmt.Sprint(rounds) != "[6 7 8 9]" {
		t.Fatalf("ring iteration order: %v", rounds)
	}
}

func TestRecorderArenaCompaction(t *testing.T) {
	const capacity = 8
	r := NewRecorder(capacity)
	// Enough eviction traffic (with parents) to trigger compaction
	// several times over; the live window must stay intact throughout.
	for i := 0; i < 4000; i++ {
		r.Record("p", tup(i).Identity(), r.InternRule("r"), 0, i, []SourceRef{
			{Pred: "e", Key: tup(100000 + i).Identity()},
			{Pred: "f", Key: tup(200000 + i).Identity()},
		})
	}
	r.mu.Lock()
	arenaLen := len(r.arena)
	r.mu.Unlock()
	if arenaLen > 1024+2*capacity {
		t.Fatalf("arena not compacted: %d entries for %d live edges", arenaLen, capacity)
	}
	n := 0
	r.Each(func(e Edge) bool {
		if len(e.Parents) != 2 || e.Parents[0].Pred != "e" || e.Parents[1].Pred != "f" {
			t.Fatalf("parents corrupted after compaction: %+v", e.Parents)
		}
		n++
		return true
	})
	if n != capacity {
		t.Fatalf("live edges after churn: %d, want %d", n, capacity)
	}
}

func TestExplainerTreeAndDump(t *testing.T) {
	db := ctable.NewDatabase()
	edge := ctable.NewTable("edge", "a", "b")
	edge.MustInsert(nil, cond.Int(1), cond.Int(2))
	reach := ctable.NewTable("reach", "a", "b")
	base := ctable.NewTuple([]cond.Term{cond.Int(1), cond.Int(2)}, cond.True())
	_ = reach.Insert(base)
	db.AddTable(edge)
	db.AddTable(reach)

	r := NewRecorder(0)
	edgeTp := edge.Tuples[0]
	r.Record("reach", base.Identity(), r.InternRule("reach(a, b) :- edge(a, b)."), 0, 0,
		[]SourceRef{{Pred: "edge", Key: edgeTp.Identity()}})

	x := NewExplainer(r, db)
	tree := x.Explain("reach", base)
	if tree.Rule == "" || len(tree.Children) != 1 {
		t.Fatalf("tree: %+v", tree)
	}
	if !tree.Children[0].EDB {
		t.Fatalf("edge parent should be an EDB leaf: %+v", tree.Children[0])
	}
	s := tree.String()
	if !strings.Contains(s, "reach(1, 2)") || !strings.Contains(s, "edge(1, 2)") {
		t.Fatalf("rendered tree:\n%s", s)
	}
	dump := x.Dump()
	want := "reach(1, 2) @ s0 r0 <= reach(a, b) :- edge(a, b). :: edge(1, 2)"
	if dump != want {
		t.Fatalf("canonical dump:\n got %q\nwant %q", dump, want)
	}
}

func TestExplainerHTTPHandler(t *testing.T) {
	db := ctable.NewDatabase()
	p := ctable.NewTable("p", "x")
	p.MustInsert(nil, cond.Int(1))
	db.AddTable(p)
	r := NewRecorder(0)
	r.Record("p", p.Tuples[0].Identity(), r.InternRule("p(x) :- q(x)."), 0, 0, nil)
	h := NewExplainer(r, db).HTTPHandler()

	// Index: table list + stats.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/explain", nil))
	var idx struct {
		Tables map[string]int `json:"tables"`
		Stats  *Stats         `json:"stats"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Tables["p"] != 1 || idx.Stats == nil || idx.Stats.Recorded != 1 {
		t.Fatalf("index response: %s", rw.Body.String())
	}

	// Per-pred explanation.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/explain?pred=p&tuple=1", nil))
	var resp struct {
		Matched      int     `json:"matched"`
		Explanations []*Tree `json:"explanations"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Matched != 1 || len(resp.Explanations) != 1 || resp.Explanations[0].Rule == "" {
		t.Fatalf("explain response: %s", rw.Body.String())
	}

	// Unknown predicate: 404.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/explain?pred=nope", nil))
	if rw.Code != 404 {
		t.Fatalf("unknown pred status: %d", rw.Code)
	}
}
