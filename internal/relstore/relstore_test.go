package relstore

import (
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

func sampleRelation(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation("f", 2)
	ins := func(c *cond.Formula, vs ...cond.Term) {
		t.Helper()
		if err := r.Insert(ctable.NewTuple(vs, c)); err != nil {
			t.Fatal(err)
		}
	}
	ins(nil, cond.Int(1), cond.Int(2))
	ins(nil, cond.Int(1), cond.Int(3))
	ins(nil, cond.Int(2), cond.Int(3))
	ins(cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(1)), cond.CVar("n"), cond.Int(9))
	return r
}

func TestInsertArity(t *testing.T) {
	r := NewRelation("f", 2)
	if err := r.Insert(ctable.NewTuple([]cond.Term{cond.Int(1)}, nil)); err == nil {
		t.Errorf("arity mismatch should error")
	}
}

func TestCandidatesConstProbe(t *testing.T) {
	r := sampleRelation(t)
	// Probe column 0 for constant 1: two constant matches plus the
	// c-variable tuple.
	got := r.Candidates(0, cond.Int(1))
	if len(got) != 3 {
		t.Fatalf("Candidates = %v, want 3 entries", got)
	}
	// Probe for a constant with no matches: only the c-var tuple.
	got = r.Candidates(0, cond.Int(99))
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Candidates(99) = %v, want [3]", got)
	}
	// Column 1 constant 9: one tuple, no c-vars there.
	got = r.Candidates(1, cond.Int(9))
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Candidates(col1, 9) = %v", got)
	}
}

func TestCandidatesCVarKeyFallsBackToScan(t *testing.T) {
	r := sampleRelation(t)
	got := r.Candidates(0, cond.CVar("z"))
	if len(got) != r.Len() {
		t.Errorf("c-var key should scan everything, got %v", got)
	}
}

func TestCandidatesStats(t *testing.T) {
	r := sampleRelation(t)
	r.Candidates(0, cond.Int(1))
	r.All()
	if r.ProbeCount() != 1 || r.ScanCount() != 1 {
		t.Errorf("stats = probes %d scans %d", r.ProbeCount(), r.ScanCount())
	}
}

func TestCandidatesFallbackCountedSeparately(t *testing.T) {
	r := sampleRelation(t)
	r.Candidates(0, cond.CVar("z")) // c-var key: degrades to a scan
	r.Candidates(7, cond.Int(1))    // out-of-range column: same
	r.All()                         // deliberate scan
	r.Candidates(0, cond.Int(1))    // honest indexed probe
	c := r.Counters()
	if c.Fallbacks != 2 || c.Scans != 1 || c.Probes != 1 {
		t.Errorf("counters = %+v, want fallbacks 2, scans 1, probes 1", c)
	}
	if got, want := c.HitRatio(), 0.25; got != want {
		t.Errorf("HitRatio = %v, want %v", got, want)
	}
}

func TestCountersHitRatioEmpty(t *testing.T) {
	var c Counters
	if c.HitRatio() != 1 {
		t.Errorf("empty HitRatio = %v, want 1", c.HitRatio())
	}
}

func TestStoreCountersAggregate(t *testing.T) {
	s := NewStore()
	a := s.Ensure("a", 1)
	b := s.Ensure("b", 1)
	if err := a.Insert(ctable.NewTuple([]cond.Term{cond.Int(1)}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(ctable.NewTuple([]cond.Term{cond.Int(2)}, nil)); err != nil {
		t.Fatal(err)
	}
	a.Candidates(0, cond.Int(1))
	b.All()
	c := s.Counters()
	if c.Probes != 1 || c.Scans != 1 {
		t.Errorf("store counters = %+v", c)
	}
}

// multiBrute is the reference semantics for CandidatesMulti: a tuple
// survives iff at every usable probed column it holds the probed
// constant or a c-variable.
func multiBrute(r *Relation, cols []int, keys []cond.Term) []int {
	usable := false
	var out []int
	for i := 0; i < r.Len(); i++ {
		tp := r.Tuple(i)
		ok := true
		for j, col := range cols {
			if j >= len(keys) || keys[j].IsCVar() || col < 0 || col >= r.Arity {
				continue
			}
			usable = true
			v := tp.Values[col]
			if !v.IsCVar() && v.String() != keys[j].String() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	if !usable {
		out = make([]int, r.Len())
		for i := range out {
			out[i] = i
		}
	}
	return out
}

func TestCandidatesMultiVsBruteForce(t *testing.T) {
	// A relation mixing repeated constants and c-variables across three
	// columns, exercising all intersection shapes.
	r := NewRelation("m", 3)
	terms := []cond.Term{cond.Int(0), cond.Int(1), cond.Int(2), cond.CVar("x"), cond.CVar("y")}
	n := 0
	for a := 0; a < len(terms); a++ {
		for b := 0; b < len(terms); b++ {
			for c := 0; c < len(terms); c++ {
				if (a+2*b+3*c)%4 == 0 { // skip some rows for irregularity
					continue
				}
				if err := r.Insert(ctable.NewTuple([]cond.Term{terms[a], terms[b], terms[c]}, nil)); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	cases := []struct {
		cols []int
		keys []cond.Term
	}{
		{[]int{0}, []cond.Term{cond.Int(1)}},
		{[]int{0, 1}, []cond.Term{cond.Int(1), cond.Int(2)}},
		{[]int{0, 1, 2}, []cond.Term{cond.Int(0), cond.Int(1), cond.Int(2)}},
		{[]int{2, 0}, []cond.Term{cond.Int(2), cond.Int(0)}},
		{[]int{0, 1}, []cond.Term{cond.Int(1), cond.Int(99)}},                 // empty const bucket
		{[]int{0, 1}, []cond.Term{cond.CVar("z"), cond.Int(1)}},               // col 0 unusable
		{[]int{0, 1}, []cond.Term{cond.CVar("z"), cond.CVar("w")}},            // all unusable: fallback
		{[]int{-1, 9, 1}, []cond.Term{cond.Int(1), cond.Int(1), cond.Int(2)}}, // bad cols skipped
	}
	for ci, tc := range cases {
		got := r.CandidatesMulti(tc.cols, tc.keys)
		want := multiBrute(r, tc.cols, tc.keys)
		if len(got) != len(want) {
			t.Fatalf("case %d: CandidatesMulti = %v, want %v", ci, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %d: CandidatesMulti = %v, want %v (sorted by store index)", ci, got, want)
			}
		}
	}
	c := r.Counters()
	if c.MultiProbes != int64(len(cases)-1) || c.Fallbacks != 1 {
		t.Errorf("counters after multi probes = %+v", c)
	}
	if c.Intersections == 0 {
		t.Errorf("expected some intersections, got %+v", c)
	}
}

func TestCandidatesMultiSubsetOfSingle(t *testing.T) {
	r := sampleRelation(t)
	multi := r.CandidatesMulti([]int{0, 1}, []cond.Term{cond.Int(1), cond.Int(3)})
	single := r.Candidates(0, cond.Int(1))
	in := map[int]bool{}
	for _, i := range single {
		in[i] = true
	}
	for _, i := range multi {
		if !in[i] {
			t.Errorf("multi candidate %d not in single-column candidates %v", i, single)
		}
	}
	// Tuple 1 is f(1,3): it must survive the two-column probe.
	found := false
	for _, i := range multi {
		if i == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("multi = %v, want it to contain tuple 1", multi)
	}
}

// Candidates may alias index storage; mutating the returned slice must
// never corrupt the index. The merged path is the only allocating one,
// so this exercises the aliasing (consts-only and cvars-only) paths and
// verifies a fresh probe still sees the true indexes.
func TestCandidatesAliasingContract(t *testing.T) {
	r := sampleRelation(t)
	// Column 1 key 9: consts-only path (aliases the bucket).
	got := r.Candidates(1, cond.Int(9))
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("precondition: Candidates(1, 9) = %v", got)
	}
	cp := append([]int(nil), got...)
	cp[0] = 999 // the documented-safe way: copy before mutating
	if again := r.Candidates(1, cond.Int(9)); len(again) != 1 || again[0] != 3 {
		t.Errorf("index corrupted after copy-mutate: %v", again)
	}
	// CandidatesMulti always allocates: mutating its result is safe.
	m := r.CandidatesMulti([]int{1}, []cond.Term{cond.Int(9)})
	for i := range m {
		m[i] = -1
	}
	if again := r.Candidates(1, cond.Int(9)); len(again) != 1 || again[0] != 3 {
		t.Errorf("index corrupted by mutating CandidatesMulti result: %v", again)
	}
	// The merged consts+cvars path allocates too.
	merged := r.Candidates(0, cond.Int(1))
	for i := range merged {
		merged[i] = -7
	}
	if again := r.Candidates(0, cond.Int(1)); len(again) != 3 {
		t.Errorf("index corrupted by mutating merged result: %v", again)
	} else {
		for _, v := range again {
			if v < 0 {
				t.Errorf("merged path aliased storage: %v", again)
			}
		}
	}
}

func TestColStats(t *testing.T) {
	r := sampleRelation(t)
	cs := r.ColStats(0)
	if cs.Distinct != 2 || cs.CVars != 1 {
		t.Errorf("ColStats(0) = %+v, want 2 distinct, 1 cvar", cs)
	}
	// (4-1)/2 + 1 = 2.5 expected candidates per constant probe.
	if got := cs.EstCandidates(r.Len()); got != 2.5 {
		t.Errorf("EstCandidates = %v, want 2.5", got)
	}
	if r.ColStats(9) != (ColStats{}) {
		t.Errorf("out-of-range ColStats should be zero")
	}
	if (ColStats{}).EstCandidates(10) != 0 {
		t.Errorf("zero-stats estimate should be 0")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	db := ctable.NewDatabase()
	tbl := ctable.NewTable("f", "a", "b")
	tbl.MustInsert(nil, cond.Int(1), cond.Int(2))
	db.AddTable(tbl)
	s := FromDatabase(db)
	if s.Rel("f") == nil || s.Rel("f").Len() != 1 {
		t.Fatalf("store missing relation")
	}
	if s.Rel("nope") != nil {
		t.Errorf("unknown relation should be nil")
	}
	out := s.Rel("f").Table([]string{"a", "b"})
	if out.Len() != 1 || out.Schema.Name != "f" {
		t.Errorf("Table round trip: %v", out)
	}
	if got := s.Names(); len(got) != 1 || got[0] != "f" {
		t.Errorf("Names = %v", got)
	}
	if s.TotalTuples() != 1 {
		t.Errorf("TotalTuples = %d", s.TotalTuples())
	}
}

// TestFromTableShares checks the load: the relation shares the table's
// tuples, an Insert leaves the table's spare capacity alone, and
// tuples of the wrong arity are skipped as Insert would reject them.
func TestFromTableShares(t *testing.T) {
	backing := make([]ctable.Tuple, 2, 4)
	backing[0] = ctable.NewTuple([]cond.Term{cond.Int(1), cond.Int(2)}, nil)
	backing[1] = ctable.NewTuple([]cond.Term{cond.Int(3), cond.Int(4)}, nil)
	tbl := &ctable.Table{Schema: ctable.Schema{Name: "f", Attrs: []string{"a", "b"}}, Tuples: backing}
	r := FromTable(tbl)
	if r.Len() != 2 || &r.tuples[0] != &backing[0] {
		t.Fatalf("relation does not share the table's tuples")
	}
	if err := r.Insert(ctable.NewTuple([]cond.Term{cond.Int(5), cond.Int(6)}, nil)); err != nil {
		t.Fatal(err)
	}
	if spare := backing[:3][2]; spare.Values != nil {
		t.Errorf("Insert wrote into the table's spare capacity: %v", spare)
	}
	if got := r.Candidates(0, cond.Int(5)); len(got) != 1 || got[0] != 2 {
		t.Errorf("Candidates(0, 5) = %v, want [2]", got)
	}

	tbl.Tuples = append(tbl.Tuples, ctable.NewTuple([]cond.Term{cond.Int(7)}, nil))
	r = FromTable(tbl)
	if r.Len() != 2 || r.Tuple(1).Values[0] != cond.Int(3) {
		t.Errorf("wrong-arity tuple not skipped: %d tuples", r.Len())
	}
}

func TestEnsureAndReplace(t *testing.T) {
	s := NewStore()
	r := s.Ensure("r", 1)
	if s.Ensure("r", 1) != r {
		t.Errorf("Ensure should return the existing relation")
	}
	nr := NewRelation("r", 1)
	s.Replace("r", nr)
	if s.Rel("r") != nr {
		t.Errorf("Replace did not swap the relation")
	}
}

// TestWatermarkReads checks that appended tuples stay invisible to
// every read until Publish: Len, All, the fallback scans, Candidates
// (constant bucket, c-variable list, the two merged) and
// CandidatesMulti, on a column built before the appends and on one
// first built while they sit above the watermark. Publish returns the
// range it made visible, and Insert publishes at once.
func TestWatermarkReads(t *testing.T) {
	r := sampleRelation(t) // (1,2) (1,3) (2,3) ($n,9)
	r.Candidates(0, cond.Int(1))
	appendTuple := func(vs ...cond.Term) {
		t.Helper()
		if err := r.Append(ctable.NewTuple(vs, nil)); err != nil {
			t.Fatal(err)
		}
	}
	appendTuple(cond.Int(1), cond.Int(5))
	appendTuple(cond.CVar("m"), cond.Int(5))
	appendTuple(cond.Int(3), cond.Int(3))
	check := func(what string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s = %v, want %v", what, got, want)
				return
			}
		}
	}
	reads := func(stage string, published int, merged, cvars, consts, multi []int) {
		t.Helper()
		all := make([]int, published)
		for i := range all {
			all[i] = i
		}
		if r.Len() != published {
			t.Errorf("%s: Len = %d, want %d", stage, r.Len(), published)
		}
		check(stage+": All", r.All(), all)
		check(stage+": c-variable key scan", r.Candidates(0, cond.CVar("z")), all)
		check(stage+": multi-probe scan", r.CandidatesMulti([]int{0}, []cond.Term{cond.CVar("z")}), all)
		// Candidates lists the constant bucket, then the c-variables.
		check(stage+": constants and c-variables", r.Candidates(0, cond.Int(1)), merged)
		check(stage+": c-variables only", r.Candidates(0, cond.Int(99)), cvars)
		check(stage+": constants only, column built late", r.Candidates(1, cond.Int(3)), consts)
		check(stage+": CandidatesMulti", r.CandidatesMulti([]int{0, 1}, []cond.Term{cond.Int(1), cond.Int(5)}), multi)
	}
	reads("appended", 4, []int{0, 1, 3}, []int{3}, []int{1, 2}, []int{})
	if lo, hi := r.Publish(); lo != 4 || hi != 7 {
		t.Errorf("Publish = [%d, %d), want [4, 7)", lo, hi)
	}
	reads("published", 7, []int{0, 1, 4, 3, 5}, []int{3, 5}, []int{1, 2, 6}, []int{4, 5})
	if err := r.Insert(ctable.NewTuple([]cond.Term{cond.Int(1), cond.Int(3)}, nil)); err != nil {
		t.Fatal(err)
	}
	reads("inserted", 8, []int{0, 1, 4, 7, 3, 5}, []int{3, 5}, []int{1, 2, 6, 7}, []int{4, 5})
	if lo, hi := r.Publish(); lo != hi {
		t.Errorf("Publish after Insert = [%d, %d), want an empty range", lo, hi)
	}
	appendTuple(cond.Int(4), cond.Int(4))
	if tbl := r.Table(nil); len(tbl.Tuples) != 8 || cap(tbl.Tuples) != 8 {
		t.Errorf("Table holds %d tuples (capacity %d), want the 8 published", len(tbl.Tuples), cap(tbl.Tuples))
	}
}
