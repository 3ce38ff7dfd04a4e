// Package ctable implements conditional tables (c-tables), the data
// model of fauré. A c-table is a relation whose tuples may contain
// c-variables in place of constants and whose every tuple carries a
// condition — a boolean formula over c-variables — stating in which
// possible worlds the tuple is present.
//
// A single c-table therefore represents a set of ordinary relations
// (one per satisfying assignment of the c-variables); the package also
// provides possible-world enumeration, which the tests use to verify
// the paper's loss-lessness property: querying the c-table is
// indistinguishable from querying every world it stands for.
package ctable

import (
	"fmt"
	"sort"
	"strings"

	"faure/internal/cond"
	"faure/internal/solver"
)

// Schema names a relation and its attributes.
type Schema struct {
	Name  string
	Attrs []string
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// String renders the schema as Name(attr1, ..., attrN).
func (s Schema) String() string {
	return s.Name + "(" + strings.Join(s.Attrs, ", ") + ")"
}

// Tuple is a conditioned row: Values holds c-domain symbols (constants
// or c-variables), Cond states when the row is present. A nil Cond is
// treated as true.
type Tuple struct {
	Values []cond.Term
	Cond   *cond.Formula
}

// NewTuple builds a tuple; a nil condition is normalised to true.
func NewTuple(values []cond.Term, c *cond.Formula) Tuple {
	if c == nil {
		c = cond.True()
	}
	return Tuple{Values: values, Cond: c}
}

// Condition returns the tuple's condition, never nil.
func (t Tuple) Condition() *cond.Formula {
	if t.Cond == nil {
		return cond.True()
	}
	return t.Cond
}

// DataKey identifies the data part of the tuple (values only).
func (t Tuple) DataKey() string {
	var b strings.Builder
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// Key identifies the tuple up to canonical condition equality. It
// materialises strings and exists for dumps, goldens and diagnostics;
// hot-path dedup uses Identity.
func (t Tuple) Key() string {
	return t.DataKey() + "  [" + t.Condition().Key() + "]"
}

// TupleID identifies a tuple without materialising strings: a 128-bit
// hash of the data part plus the interned id of the condition. Two
// tuples with equal TupleIDs have (up to the negligible 128-bit
// collision probability) identical values and the identical canonical
// condition. Condition ids are process-local, so TupleIDs must never
// be serialised or compared across runs.
type TupleID struct {
	D1, D2 uint64
	Cond   uint64
}

const (
	fnvOffset64  = 14695981039346656037
	fnvOffset64b = 0xcbf29ce484222325 ^ 0x9e3779b97f4a7c15 // independent second stream
	fnvPrime64   = 1099511628211
)

// DataHash returns a 128-bit hash of the tuple's data part (two
// independent FNV-style streams over the same bytes), the no-allocation
// counterpart of DataKey.
func (t Tuple) DataHash() [2]uint64 {
	var h1, h2 uint64 = fnvOffset64, fnvOffset64b
	mix := func(b byte) {
		h1 = (h1 ^ uint64(b)) * fnvPrime64 // FNV-1a
		h2 = h2*fnvPrime64 ^ uint64(b)     // FNV-1
	}
	mixU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v))
			v >>= 8
		}
	}
	for _, v := range t.Values {
		mix(byte(v.Kind))
		mixU64(uint64(v.I))
		mixU64(uint64(len(v.S)))
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	}
	return [2]uint64{h1, h2}
}

// Identity returns the tuple's hot-path identity: data hash plus the
// interned condition id.
func (t Tuple) Identity() TupleID {
	d := t.DataHash()
	return TupleID{D1: d[0], D2: d[1], Cond: t.Condition().ID()}
}

// String renders the tuple in the concrete syntax used by the CLI:
// (v1, v2)[condition], with a true condition omitted.
func (t Tuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = v.String()
	}
	s := "(" + strings.Join(parts, ", ") + ")"
	if c := t.Condition(); !c.IsTrue() {
		s += "[" + c.String() + "]"
	}
	return s
}

// Ground reports whether the tuple's values contain no c-variables.
func (t Tuple) Ground() bool {
	for _, v := range t.Values {
		if v.IsCVar() {
			return false
		}
	}
	return true
}

// Subst applies a c-variable assignment to both values and condition.
func (t Tuple) Subst(m map[string]cond.Term) Tuple {
	vals := make([]cond.Term, len(t.Values))
	for i, v := range t.Values {
		if v.IsCVar() {
			if r, ok := m[v.S]; ok {
				vals[i] = r
				continue
			}
		}
		vals[i] = v
	}
	return Tuple{Values: vals, Cond: t.Condition().Subst(m)}
}

// Table is a c-table: a schema plus conditioned tuples.
type Table struct {
	Schema Schema
	Tuples []Tuple
}

// NewTable builds an empty table with the given schema.
func NewTable(name string, attrs ...string) *Table {
	return &Table{Schema: Schema{Name: name, Attrs: attrs}}
}

// Insert appends a tuple after checking its arity. Contradictory
// conditions (literally false) are dropped.
func (t *Table) Insert(tp Tuple) error {
	if len(tp.Values) != t.Schema.Arity() {
		return fmt.Errorf("ctable: arity mismatch inserting into %s: got %d values, want %d",
			t.Schema.Name, len(tp.Values), t.Schema.Arity())
	}
	if tp.Condition().IsFalse() {
		return nil
	}
	t.Tuples = append(t.Tuples, tp)
	return nil
}

// MustInsert is Insert for static construction; it panics on arity
// mismatch.
//
// Invariant, not an error path: callers (topology compilers, the RIB
// generator) build the values slice to the schema they just declared,
// so a mismatch is a bug in the generator, not a data condition.
// Parsed input goes through Insert, which returns the error.
func (t *Table) MustInsert(c *cond.Formula, values ...cond.Term) {
	if err := t.Insert(NewTuple(values, c)); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.Tuples) }

// Clone returns a deep-enough copy (tuples are value types; formulas
// are immutable and shared).
func (t *Table) Clone() *Table {
	c := &Table{Schema: t.Schema, Tuples: make([]Tuple, len(t.Tuples))}
	copy(c.Tuples, t.Tuples)
	return c
}

// CVars returns the sorted, duplicate-free c-variables appearing
// anywhere in the table (values or conditions).
func (t *Table) CVars() []string {
	set := map[string]bool{}
	for _, tp := range t.Tuples {
		for _, v := range tp.Values {
			if v.IsCVar() {
				set[v.S] = true
			}
		}
		for _, n := range tp.Condition().CVars() {
			set[n] = true
		}
	}
	return sortedKeys(set)
}

// String renders the table with a header row, for diagnostics.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Schema.String())
	b.WriteByte('\n')
	for _, tp := range t.Tuples {
		b.WriteString("  ")
		b.WriteString(tp.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Database is a set of c-tables plus the registry of c-variable
// domains that gives the unknowns their meaning.
type Database struct {
	Tables map[string]*Table
	Doms   solver.Domains
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{Tables: map[string]*Table{}, Doms: solver.Domains{}}
}

// AddTable registers a table; an existing table with the same name is
// replaced.
func (db *Database) AddTable(t *Table) { db.Tables[t.Schema.Name] = t }

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.Tables[name] }

// DeclareVar registers a c-variable with its domain. Re-declaring a
// variable overwrites its domain.
func (db *Database) DeclareVar(name string, d solver.Domain) { db.Doms[name] = d }

// Clone copies the database structure (tables are cloned; the domain
// map is copied shallowly — domains are immutable in practice).
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for n, t := range db.Tables {
		c.Tables[n] = t.Clone()
	}
	for n, d := range db.Doms {
		c.Doms[n] = d
	}
	return c
}

// TableNames returns the sorted table names.
func (db *Database) TableNames() []string {
	set := map[string]bool{}
	for n := range db.Tables {
		set[n] = true
	}
	return sortedKeys(set)
}

// String renders every table, sorted by name.
func (db *Database) String() string {
	var b strings.Builder
	for _, n := range db.TableNames() {
		b.WriteString(db.Tables[n].String())
	}
	return b.String()
}

// CVars returns the sorted c-variables used anywhere in the database.
func (db *Database) CVars() []string {
	set := map[string]bool{}
	for _, t := range db.Tables {
		for _, n := range t.CVars() {
			set[n] = true
		}
	}
	return sortedKeys(set)
}

// World is one concrete instantiation of a database: an assignment of
// c-variables and the resulting ordinary relations.
type World struct {
	Assign map[string]cond.Term
	Tables map[string][][]cond.Term
}

// EachWorld enumerates the possible worlds of the database over the
// given c-variables (all must have finite domains): for each total
// assignment it materialises the concrete tables — substituting values
// and keeping exactly the tuples whose condition evaluates true — and
// calls fn. fn returning false stops the enumeration. Tuples whose
// substituted condition still contains free c-variables (outside the
// enumerated set) cause an error, since the world would be ambiguous.
func (db *Database) EachWorld(vars []string, fn func(World) bool) error {
	s := solver.New(db.Doms)
	var worldErr error
	err := s.Worlds(vars, func(assign map[string]cond.Term) bool {
		w := World{Assign: assign, Tables: map[string][][]cond.Term{}}
		for name, t := range db.Tables {
			rows := make([][]cond.Term, 0, len(t.Tuples))
			for _, tp := range t.Tuples {
				st := tp.Subst(assign)
				c := st.Condition()
				if !c.IsTrue() && !c.IsFalse() {
					worldErr = fmt.Errorf("ctable: world for %v leaves condition %v undecided", assign, c)
					return false
				}
				if c.IsTrue() {
					rows = append(rows, st.Values)
				}
			}
			w.Tables[name] = rows
		}
		return fn(w)
	})
	if worldErr != nil {
		return worldErr
	}
	return err
}

// Normalize prunes tuples with unsatisfiable conditions and merges
// exact-duplicate rows (same data part) by OR-ing their conditions.
// It returns the number of tuples removed. This mirrors step (3) of
// the paper's PostgreSQL implementation, where Z3 deletes
// contradictory tuples. Each table gets a new tuple slice: an
// evaluation result's tables share their arrays with other tables.
func (db *Database) Normalize(s *solver.Solver) (int, error) {
	removed := 0
	for _, t := range db.Tables {
		kept := make([]Tuple, 0, len(t.Tuples))
		byData := map[string]int{}
		for _, tp := range t.Tuples {
			sat, err := s.Satisfiable(tp.Condition())
			if err != nil {
				return removed, err
			}
			if !sat {
				removed++
				continue
			}
			dk := tp.DataKey()
			if i, ok := byData[dk]; ok {
				kept[i].Cond = cond.Or(kept[i].Condition(), tp.Condition())
				removed++
				continue
			}
			byData[dk] = len(kept)
			kept = append(kept, tp)
		}
		t.Tuples = kept
	}
	return removed, nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
