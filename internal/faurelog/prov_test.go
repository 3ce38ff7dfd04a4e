package faurelog

import (
	"strings"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/prov"
)

// TestProvenanceDeterminism: the canonical provenance dump — every
// live edge's tuple, rule, stratum/round and parents — must be
// byte-identical across runs, because edges are recorded only at
// commit, in emission order.
func TestProvenanceDeterminism(t *testing.T) {
	for progName, src := range condPrograms {
		prog := MustParse(src)
		db := condGraph(t, 18)
		run := func() (string, Stats) {
			rec := prov.NewRecorder(0)
			res, err := Eval(prog, db, Options{Prov: rec})
			if err != nil {
				t.Fatalf("%s: %v", progName, err)
			}
			if res.Stats.ProvEdges == 0 || res.Stats.ProvEdges != rec.Stats().Recorded {
				t.Fatalf("%s: stats ProvEdges=%d, recorder %d", progName, res.Stats.ProvEdges, rec.Stats().Recorded)
			}
			return prov.NewExplainer(rec, res.DB).Dump(), res.Stats
		}
		want, first := run()
		if want == "" {
			t.Fatalf("%s: no provenance recorded", progName)
		}
		got, again := run()
		if got != want {
			t.Fatalf("%s: provenance differs between runs\nfirst:\n%s\nsecond:\n%s", progName, want, got)
		}
		if again.ProvEdges != first.ProvEdges || again.ProvParents != first.ProvParents {
			t.Errorf("%s: prov stats (%d,%d) != first run's (%d,%d)", progName,
				again.ProvEdges, again.ProvParents, first.ProvEdges, first.ProvParents)
		}
	}
}

// TestProvenanceExplainTree walks a recursive derivation back to its
// EDB leaves and checks negated parents render as negation leaves.
func TestProvenanceExplainTree(t *testing.T) {
	db := condGraph(t, 12)
	prog := MustParse(condPrograms["negation"])
	rec := prov.NewRecorder(0)
	res, err := Eval(prog, db, Options{Prov: rec})
	if err != nil {
		t.Fatal(err)
	}
	x := prov.NewExplainer(rec, res.DB)

	trees := x.ExplainAll("reach")
	if len(trees) == 0 {
		t.Fatal("no reach tuples to explain")
	}
	var deep *prov.Tree
	for _, tr := range trees {
		if tr.Rule != "" && len(tr.Children) == 2 {
			deep = tr
			break
		}
	}
	if deep == nil {
		t.Fatal("no recursive reach derivation found")
	}
	// Every path of the tree must terminate in an EDB leaf (link/node
	// facts) or a negation leaf; no node may be unresolved.
	var walk func(*prov.Tree)
	var leaves int
	walk = func(tr *prov.Tree) {
		if tr.Missing {
			t.Fatalf("unresolved parent in tree:\n%s", deep)
		}
		if len(tr.Children) == 0 {
			if !tr.EDB && !tr.Negated && tr.Rule != "" {
				t.Fatalf("interior node with no children: %+v", tr)
			}
			leaves++
			return
		}
		for _, c := range tr.Children {
			walk(c)
		}
	}
	walk(deep)
	if leaves < 2 {
		t.Fatalf("expected >= 2 leaves, got %d:\n%s", leaves, deep)
	}

	// isolated(a,b) :- node(a), node(b), not reach(a,b): its trees must
	// carry a negated leaf for the reach pattern.
	iso := x.ExplainAll("isolated")
	if len(iso) > 0 {
		found := false
		for _, c := range iso[0].Children {
			if c.Negated && c.Pred == "reach" {
				found = true
			}
		}
		if !found {
			t.Fatalf("isolated tree lacks negated reach leaf:\n%s", iso[0])
		}
		if !strings.Contains(iso[0].String(), "not reach") {
			t.Fatalf("rendering lacks 'not reach':\n%s", iso[0])
		}
	}
}

// TestProvenanceFlightRecorder: a bounded recorder keeps only the most
// recent edges and counts what the ring overwrote.
func TestProvenanceFlightRecorder(t *testing.T) {
	db := condGraph(t, 18)
	prog := MustParse(condPrograms["recursive"])
	rec := prov.NewRecorder(16)
	res, err := Eval(prog, db, Options{Prov: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 16 {
		t.Fatalf("ring holds %d edges, want 16", rec.Len())
	}
	if res.Stats.ProvEvicted == 0 || res.Stats.ProvEvicted != res.Stats.ProvEdges-16 {
		t.Fatalf("evicted=%d edges=%d", res.Stats.ProvEvicted, res.Stats.ProvEdges)
	}
	// Tuples whose edge was evicted degrade to EDB leaves — explain
	// still answers, just with less depth.
	x := prov.NewExplainer(rec, res.DB)
	for _, tr := range x.ExplainAll("reach") {
		if tr.Missing {
			t.Fatalf("flight-recorder explain produced unresolved root: %+v", tr)
		}
	}
}

// TestProvenanceDisabledZero: without a recorder the engine must not
// count (or pay for) provenance.
func TestProvenanceDisabledZero(t *testing.T) {
	db := condGraph(t, 12)
	res, err := Eval(MustParse(condPrograms["recursive"]), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProvEdges != 0 || res.Stats.ProvParents != 0 || res.Stats.ProvEvicted != 0 {
		t.Fatalf("prov stats nonzero with provenance disabled: %+v", res.Stats)
	}
}

// TestIncrementalProvenance: EvalIncrement records edges for the
// re-derivations the new facts enable, with the same recorder wiring.
func TestIncrementalProvenance(t *testing.T) {
	prog := MustParse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`)
	db := ctable.NewDatabase()
	link := ctable.NewTable("link", "src", "dst")
	link.MustInsert(nil, cond.Int(1), cond.Int(2))
	db.AddTable(link)
	base, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := prov.NewRecorder(0)
	inc, err := EvalIncrement(prog, base.DB, map[string][]ctable.Tuple{
		"link": {ctable.NewTuple([]cond.Term{cond.Int(2), cond.Int(3)}, cond.True())},
	}, Options{Prov: rec})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.ProvEdges == 0 {
		t.Fatal("incremental run recorded no provenance")
	}
	x := prov.NewExplainer(rec, inc.DB)
	// reach(1,3) is new: its tree must chain through reach(2,3).
	tuples := x.Find("reach", "1|3")
	if len(tuples) != 1 {
		t.Fatalf("reach(1,3) matches: %d", len(tuples))
	}
	tr := x.Explain("reach", tuples[0])
	if tr.Rule == "" || len(tr.Children) != 2 {
		t.Fatalf("reach(1,3) tree:\n%s", tr)
	}
}
