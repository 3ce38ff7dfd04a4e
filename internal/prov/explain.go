package prov

import (
	"fmt"
	"sort"
	"strings"

	"faure/internal/ctable"
)

// Tree is one node of a derivation tree: a tuple, the rule whose
// commit first derived it, and one child per body source. EDB facts
// and negated sources are leaves.
type Tree struct {
	Pred  string `json:"pred"`
	Tuple string `json:"tuple"`
	Cond  string `json:"cond,omitempty"`
	Rule  string `json:"rule,omitempty"`
	// Stratum/Round locate the commit in the fixpoint.
	Stratum int  `json:"stratum,omitempty"`
	Round   int  `json:"round,omitempty"`
	Negated bool `json:"negated,omitempty"`
	// EDB marks a leaf with no recorded derivation: an input fact (or,
	// in flight-recorder mode, a tuple whose edge the ring evicted).
	EDB bool `json:"edb,omitempty"`
	// Missing marks a parent whose tuple could be resolved in neither
	// the result database nor the negation side table (e.g. removed by
	// the deferred final prune).
	Missing bool `json:"missing,omitempty"`
	// Truncated marks a node cut by the depth/cycle guard.
	Truncated bool    `json:"truncated,omitempty"`
	Children  []*Tree `json:"children,omitempty"`
}

// String renders the tree with two-space indentation: one line per
// node, derived nodes followed by their rule and stratum/round.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if t.Negated {
		b.WriteString("not ")
	}
	b.WriteString(t.Pred)
	b.WriteString(t.Tuple)
	if t.Cond != "" {
		b.WriteString("[" + t.Cond + "]")
	}
	switch {
	case t.Missing:
		b.WriteString("   (unresolved)")
	case t.Truncated:
		b.WriteString("   (depth limit)")
	case t.Rule != "":
		fmt.Fprintf(b, "   ⇐ %s  @ s%d r%d", t.Rule, t.Stratum, t.Round)
	}
	b.WriteByte('\n')
	for _, c := range t.Children {
		c.render(b, depth+1)
	}
}

// Explainer resolves provenance edges against a result database: the
// recorder knows identities, the database knows the tuples behind
// them. Build one from the recorder an evaluation recorded into and
// the Result.DB it produced.
type Explainer struct {
	rec *Recorder
	db  *ctable.Database
	// byID maps pred-scoped tuple identity -> tuple over every table of
	// the result database (identities hash only values and condition,
	// so two relations can hold tuples with the same identity).
	byID map[dbKey]ctable.Tuple
}

type dbKey struct {
	pred string
	id   ctable.TupleID
}

// maxExplainDepth caps derivation-tree recursion as a safety net (the
// first-derivation-wins recording is acyclic by construction, but a
// hand-built recorder need not be).
const maxExplainDepth = 64

// NewExplainer indexes the database's tuples by identity.
func NewExplainer(rec *Recorder, db *ctable.Database) *Explainer {
	x := &Explainer{rec: rec, db: db, byID: map[dbKey]ctable.Tuple{}}
	if db != nil {
		for name, t := range db.Tables {
			for _, tp := range t.Tuples {
				x.byID[dbKey{name, tp.Identity()}] = tp
			}
		}
	}
	return x
}

// Find returns the tuples of pred whose data part renders as dataKey
// (see ctable.Tuple.DataKey), in table order. An empty dataKey matches
// every tuple of the table.
func (x *Explainer) Find(pred, dataKey string) []ctable.Tuple {
	if x.db == nil {
		return nil
	}
	t := x.db.Table(pred)
	if t == nil {
		return nil
	}
	var out []ctable.Tuple
	for _, tp := range t.Tuples {
		if dataKey == "" || tp.DataKey() == dataKey {
			out = append(out, tp)
		}
	}
	return out
}

// Explain builds the derivation tree of one tuple. Tuples with no
// recorded edge come back as EDB leaves.
func (x *Explainer) Explain(pred string, tp ctable.Tuple) *Tree {
	return x.explain(pred, tp, false, map[dbKey]bool{}, 0)
}

func (x *Explainer) explain(pred string, tp ctable.Tuple, negated bool, path map[dbKey]bool, depth int) *Tree {
	t := &Tree{Pred: pred, Tuple: renderValues(tp), Negated: negated}
	if c := tp.Condition(); !c.IsTrue() {
		t.Cond = c.String()
	}
	if negated {
		return t // negation leaves carry the "not derivable" condition
	}
	key := dbKey{pred, tp.Identity()}
	edge, ok := x.rec.Lookup(pred, key.id)
	if !ok {
		t.EDB = true
		return t
	}
	if path[key] || depth >= maxExplainDepth {
		t.Truncated = true
		return t
	}
	t.Rule, t.Stratum, t.Round = edge.Rule, edge.Stratum, edge.Round
	path[key] = true
	for _, p := range edge.Parents {
		var ptp ctable.Tuple
		var found bool
		if p.Negated {
			ptp, found = x.rec.NegTuple(p.Pred, p.Key)
		} else {
			ptp, found = x.byID[dbKey{p.Pred, p.Key}]
		}
		if !found {
			t.Children = append(t.Children, &Tree{Pred: p.Pred, Tuple: "(?)", Negated: p.Negated, Missing: true})
			continue
		}
		t.Children = append(t.Children, x.explain(p.Pred, ptp, p.Negated, path, depth+1))
	}
	delete(path, key)
	return t
}

// ExplainAll explains every tuple currently in the named table.
func (x *Explainer) ExplainAll(pred string) []*Tree {
	if x.db == nil {
		return nil
	}
	t := x.db.Table(pred)
	if t == nil {
		return nil
	}
	out := make([]*Tree, 0, t.Len())
	for _, tp := range t.Tuples {
		out = append(out, x.Explain(pred, tp))
	}
	return out
}

// Dump renders the recorder's live edges in a canonical, run-stable
// form: one line per edge — tuple, rule, stratum/round and parents,
// all string-rendered (raw identities and condition ids are process-
// local) — sorted lexicographically, so two runs that record the same
// edges dump the same bytes.
func (x *Explainer) Dump() string {
	var lines []string
	x.rec.Each(func(e Edge) bool {
		var b strings.Builder
		b.WriteString(e.Pred)
		b.WriteString(x.renderKey(e.Pred, e.Key, false))
		fmt.Fprintf(&b, " @ s%d r%d <= %s", e.Stratum, e.Round, e.Rule)
		for i, p := range e.Parents {
			if i == 0 {
				b.WriteString(" :: ")
			} else {
				b.WriteString(" ; ")
			}
			if p.Negated {
				b.WriteString("not ")
			}
			b.WriteString(p.Pred)
			b.WriteString(x.renderKey(p.Pred, p.Key, p.Negated))
		}
		lines = append(lines, b.String())
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// renderKey resolves an identity to its tuple's concrete syntax, via
// the negation side table for negated parents.
func (x *Explainer) renderKey(pred string, key ctable.TupleID, negated bool) string {
	if negated {
		if tp, ok := x.rec.NegTuple(pred, key); ok {
			return tp.String()
		}
	} else if tp, ok := x.byID[dbKey{pred, key}]; ok {
		return tp.String()
	}
	return "(?)"
}

// renderValues renders a tuple's data part only: (v1, v2).
func renderValues(tp ctable.Tuple) string {
	parts := make([]string, len(tp.Values))
	for i, v := range tp.Values {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
