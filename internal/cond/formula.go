package cond

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// FKind discriminates the variants of a Formula node.
type FKind uint8

const (
	// FTrue is the empty (always satisfied) condition.
	FTrue FKind = iota
	// FFalse is the contradictory condition.
	FFalse
	// FAtom wraps a single comparison Atom.
	FAtom
	// FAnd is an n-ary conjunction.
	FAnd
	// FOr is an n-ary disjunction.
	FOr
	// FNot is a negation.
	FNot
)

// Formula is an immutable, hash-consed boolean formula over comparison
// atoms. Build formulas only through the constructors (True, False,
// AtomF, And, Or, Not); they flatten, deduplicate and sort
// sub-formulas into a canonical form and intern the result in the
// package's global table (see intern.go), so logically identical
// spellings are the *same pointer*. Equality is pointer equality,
// dedup/memo keys are ID(), and sub-formulas are structurally shared
// across every formula that contains them.
//
// Immutability is a concurrency contract: every derived field (id,
// hash, atom count, free c-variables) is fixed at intern time, and the
// lazy key cache is an atomic pointer. Formulas may therefore be read
// — compared, traversed, solved — from any number of goroutines
// without synchronisation; faure-serve's concurrent evaluations share
// every interned formula this way.
type Formula struct {
	Kind FKind
	Atom Atom       // valid when Kind == FAtom
	Sub  []*Formula // children for FAnd/FOr (>=2), FNot (==1)

	id     uint64                 // interned identity, unique per canonical node
	hash   uint64                 // structural hash (content-only, stable across runs)
	nAtoms int                    // atom occurrences, computed at intern time
	cvars  []string               // sorted distinct free c-variables, computed at intern time
	key    atomic.Pointer[string] // lazily built canonical key, for dumps/trace only
	// neg links an atom to its complement once both are interned
	// (see internNode); nil while the complement has not been built.
	neg atomic.Pointer[Formula]
}

var (
	trueF  = newSingleton(FTrue, "T")
	falseF = newSingleton(FFalse, "F")
)

// ID returns the formula's interned identity: two formulas are the
// same canonical node iff their IDs are equal. IDs are assigned in
// first-intern order, so they are stable within a process but NOT
// across runs (and under concurrent evaluations not across
// interleavings); use them as map keys, never to order output.
func (f *Formula) ID() uint64 { return f.id }

// NAtoms returns the number of atom occurrences in f. It is computed
// at intern time, so budget checks on condition growth cost a field
// read rather than a tree walk.
func (f *Formula) NAtoms() int { return f.nAtoms }

// True returns the always-satisfied condition.
func True() *Formula { return trueF }

// False returns the contradictory condition.
func False() *Formula { return falseF }

// IsTrue reports whether f is the literal true condition.
func (f *Formula) IsTrue() bool { return f.Kind == FTrue }

// IsFalse reports whether f is the literal false condition.
func (f *Formula) IsFalse() bool { return f.Kind == FFalse }

// AtomF wraps an atom as a formula, evaluating it immediately when it
// is ground (so e.g. 3 = 3 collapses to True).
func AtomF(a Atom) *Formula {
	a = foldSum(a).canonical()
	if a.Ground() {
		if v, err := a.EvalGround(); err == nil {
			if v {
				return trueF
			}
			return falseF
		}
	}
	// A trivially-true reflexive comparison on a c-variable.
	if len(a.Sum) == 1 && a.Sum[0].Equal(a.RHS) {
		switch a.Op {
		case Eq, Le, Ge:
			return trueF
		case Ne, Lt, Gt:
			return falseF
		}
	}
	return internNode(FAtom, a, nil, 1)
}

// foldSum moves integer-constant summands of a multi-term sum into the
// right-hand side, so that x̄+1+ȳ = 2 becomes x̄+ȳ = 1. Folding only
// applies when the right-hand side is an integer constant.
func foldSum(a Atom) Atom {
	if len(a.Sum) < 2 || !a.RHS.IsInt() {
		return a
	}
	var rest []Term
	var acc int64
	for _, t := range a.Sum {
		if t.IsInt() {
			acc += t.I
		} else {
			rest = append(rest, t)
		}
	}
	if acc == 0 {
		return a
	}
	if len(rest) == 0 {
		rest = []Term{Int(acc)}
		acc = 0
	}
	return Atom{Sum: rest, Op: a.Op, RHS: Int(a.RHS.I - acc)}
}

// Compare builds the atom l op r as a formula.
func Compare(l Term, op Op, r Term) *Formula { return AtomF(NewAtom(l, op, r)) }

// And returns the canonicalised conjunction of fs: nested conjunctions
// are flattened, True dropped, duplicates removed, and the result
// collapses to False when any child is False or two children are
// directly complementary atoms.
func And(fs ...*Formula) *Formula { return combine(FAnd, fs) }

// Or returns the canonicalised disjunction of fs, dually to And.
func Or(fs ...*Formula) *Formula { return combine(FOr, fs) }

// stackChildren sizes combine's stack buffer: a node of up to this many
// flattened children is built without allocating on an intern hit.
const stackChildren = 16

func combine(kind FKind, fs []*Formula) *Formula {
	identity, absorber := trueF, falseF
	if kind == FOr {
		identity, absorber = falseF, trueF
	}
	var buf [stackChildren]*Formula
	flat := buf[:0]
	for _, f := range fs {
		switch {
		case f == nil || f.Kind == identity.Kind:
		case f.Kind == absorber.Kind:
			return absorber
		case f.Kind == kind:
			// A canonical node's children are already flat and neither
			// True nor False.
			flat = append(flat, f.Sub...)
		default:
			flat = append(flat, f)
		}
	}
	// Canonical child order is purely structural (compareNode): it must
	// not involve intern ids, whose assignment order depends on what the
	// process interned before (and on interleaving under faure-serve's
	// concurrent evaluations), or runs would disagree across processes.
	// Children are interned and compareNode is 0 only for the same
	// pointer, so duplicates end up adjacent and Compact drops them.
	slices.SortFunc(flat, compareNode)
	flat = slices.Compact(flat)
	switch len(flat) {
	case 0:
		return identity
	case 1:
		return flat[0]
	}
	// Detect directly complementary pairs: a ∧ ¬a = false, a ∨ ¬a =
	// true. An atom's complement is one pointer load (the two are linked
	// when the second is interned); only syntactic complements are
	// caught here, the solver handles the general case.
	n := 0
	for _, f := range flat {
		n += f.nAtoms
		var comp *Formula
		switch f.Kind {
		case FAtom:
			comp = f.neg.Load()
		case FNot:
			comp = f.Sub[0]
		}
		if comp != nil {
			if _, found := slices.BinarySearchFunc(flat, comp, compareNode); found {
				return absorber
			}
		}
	}
	return internNode(kind, Atom{}, flat, n)
}

// compareNode is the canonical structural order on interned formulas:
// kind first, then atom order for atoms, recursive child order
// otherwise. It never consults intern ids (see combine) and two nodes
// compare equal iff they are the same pointer.
func compareNode(a, b *Formula) int {
	if a == b {
		return 0
	}
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Kind == FAtom {
		return a.Atom.Compare(b.Atom)
	}
	for i := 0; i < len(a.Sub) && i < len(b.Sub); i++ {
		if c := compareNode(a.Sub[i], b.Sub[i]); c != 0 {
			return c
		}
	}
	return len(a.Sub) - len(b.Sub)
}

// Not returns the negation of f. Negations of atoms are rewritten to
// the complementary atom; double negations cancel.
func Not(f *Formula) *Formula {
	switch f.Kind {
	case FTrue:
		return falseF
	case FFalse:
		return trueF
	case FAtom:
		return AtomF(f.Atom.Negate())
	case FNot:
		return f.Sub[0]
	}
	return internNode(FNot, Atom{}, []*Formula{f}, f.nAtoms)
}

// Key returns the canonical key of the formula. Formulas with equal
// keys are syntactically identical after canonicalisation (for
// interned formulas the converse also holds: equal keys imply the same
// pointer). The key is built lazily on first call — it exists for
// dumps, traces and goldens; hot paths compare pointers and use ID().
func (f *Formula) Key() string {
	if k := f.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	f.buildKey(&b)
	k := b.String()
	// Racing stores write identical strings; either winning is fine.
	f.key.Store(&k)
	return k
}

func (f *Formula) buildKey(b *strings.Builder) {
	if k := f.key.Load(); k != nil {
		b.WriteString(*k)
		return
	}
	switch f.Kind {
	case FTrue:
		b.WriteByte('T')
	case FFalse:
		b.WriteByte('F')
	case FAtom:
		b.WriteString("a:")
		b.WriteString(f.Atom.Key())
	case FNot:
		b.WriteString("!(")
		f.Sub[0].buildKey(b)
		b.WriteByte(')')
	default:
		if f.Kind == FAnd {
			b.WriteString("&(")
		} else {
			b.WriteString("|(")
		}
		for i, s := range f.Sub {
			if i > 0 {
				b.WriteByte(',')
			}
			s.buildKey(b)
		}
		b.WriteByte(')')
	}
}

// Equal reports canonical syntactic equality. Interning makes this a
// pointer compare.
func (f *Formula) Equal(g *Formula) bool { return f == g }

// String renders the formula in the concrete syntax.
func (f *Formula) String() string {
	switch f.Kind {
	case FTrue:
		return "true"
	case FFalse:
		return "false"
	case FAtom:
		return f.Atom.String()
	case FNot:
		return "!(" + f.Sub[0].String() + ")"
	}
	sep := " && "
	if f.Kind == FOr {
		sep = " || "
	}
	parts := make([]string, len(f.Sub))
	for i, s := range f.Sub {
		if s.Kind == FAnd || s.Kind == FOr {
			parts[i] = "(" + s.String() + ")"
		} else {
			parts[i] = s.String()
		}
	}
	return strings.Join(parts, sep)
}

// CVars returns the sorted, duplicate-free names of the c-variables
// occurring in f. The slice is precomputed at intern time and shared
// by every caller (and possibly by parent formulas): callers must not
// modify it.
func (f *Formula) CVars() []string { return f.cvars }

// Atoms returns every distinct atom occurring in f, in canonical atom
// order.
func (f *Formula) Atoms() []Atom {
	var out []Atom
	f.walkAtoms(func(a Atom) { out = append(out, a) })
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	w := 0
	for i, a := range out {
		if i == 0 || a.Compare(out[w-1]) != 0 {
			out[w] = a
			w++
		}
	}
	return out[:w]
}

// FirstAtom returns the leftmost atom occurrence in f's canonical
// form, without collecting or sorting the full atom set. The solver
// uses it as a deterministic case-split pivot.
func (f *Formula) FirstAtom() (Atom, bool) {
	switch f.Kind {
	case FAtom:
		return f.Atom, true
	case FAnd, FOr, FNot:
		for _, s := range f.Sub {
			if a, ok := s.FirstAtom(); ok {
				return a, true
			}
		}
	}
	return Atom{}, false
}

func (f *Formula) walkAtoms(fn func(Atom)) {
	switch f.Kind {
	case FAtom:
		fn(f.Atom)
	case FAnd, FOr, FNot:
		for _, s := range f.Sub {
			s.walkAtoms(fn)
		}
	}
}

// Subst substitutes c-variables in f according to m, re-simplifying as
// atoms become ground. Sub-trees whose free variables miss m entirely
// are returned as-is (shared, not rebuilt).
func (f *Formula) Subst(m map[string]Term) *Formula {
	if len(m) == 0 || !f.touchesAny(m) {
		return f
	}
	switch f.Kind {
	case FTrue, FFalse:
		return f
	case FAtom:
		return AtomF(f.Atom.Subst(m))
	case FNot:
		return Not(f.Sub[0].Subst(m))
	}
	sub := make([]*Formula, len(f.Sub))
	for i, s := range f.Sub {
		sub[i] = s.Subst(m)
	}
	if f.Kind == FAnd {
		return And(sub...)
	}
	return Or(sub...)
}

// touchesAny reports whether any of f's free c-variables is a key of
// m, using the precomputed sorted cvars set.
func (f *Formula) touchesAny(m map[string]Term) bool {
	for _, v := range f.cvars {
		if _, ok := m[v]; ok {
			return true
		}
	}
	return false
}

// AssignAtom replaces every occurrence of the atom a (which must be in
// canonical form, as returned by Atoms/FirstAtom) by the constant val,
// simplifying the result. The solver uses this for case splitting;
// note that it is purely syntactic (the complementary atom, if also
// present, is not touched). Sub-trees not containing a are shared.
func (f *Formula) AssignAtom(a Atom, val bool) *Formula {
	switch f.Kind {
	case FTrue, FFalse:
		return f
	case FAtom:
		if f.Atom.Equal(a) {
			if val {
				return trueF
			}
			return falseF
		}
		return f
	case FNot:
		g := f.Sub[0].AssignAtom(a, val)
		if g == f.Sub[0] {
			return f
		}
		return Not(g)
	}
	sub := make([]*Formula, len(f.Sub))
	changed := false
	for i, s := range f.Sub {
		sub[i] = s.AssignAtom(a, val)
		changed = changed || sub[i] != s
	}
	if !changed {
		return f
	}
	if f.Kind == FAnd {
		return And(sub...)
	}
	return Or(sub...)
}

// EvalGround evaluates a formula with no c-variables (or after Subst
// with a total assignment). It returns an error for type mismatches.
func (f *Formula) EvalGround() (bool, error) {
	switch f.Kind {
	case FTrue:
		return true, nil
	case FFalse:
		return false, nil
	case FAtom:
		return f.Atom.EvalGround()
	case FNot:
		v, err := f.Sub[0].EvalGround()
		return !v, err
	case FAnd:
		for _, s := range f.Sub {
			v, err := s.EvalGround()
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	default: // FOr
		for _, s := range f.Sub {
			v, err := s.EvalGround()
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	}
}

// EvalPartial evaluates f three-valued under a partial assignment of
// its c-variables: lookup returns the value bound to a name, or
// ok=false when unbound. It returns +1 when f is true under every
// extension of the assignment, -1 when false under every extension,
// and 0 when undetermined (an atom with an unbound c-variable, or a
// type mix EvalGround would reject, blocks the verdict). Unlike Subst
// it builds and interns nothing — the solver uses it to replay cached
// witnesses against extended conditions at pointer-chasing cost.
func (f *Formula) EvalPartial(lookup func(name string) (Term, bool)) int {
	switch f.Kind {
	case FTrue:
		return 1
	case FFalse:
		return -1
	case FAtom:
		v, known, err := f.Atom.EvalUnder(lookup)
		if !known || err != nil {
			return 0
		}
		if v {
			return 1
		}
		return -1
	case FNot:
		return -f.Sub[0].EvalPartial(lookup)
	case FAnd:
		r := 1
		for _, s := range f.Sub {
			switch s.EvalPartial(lookup) {
			case -1:
				return -1
			case 0:
				r = 0
			}
		}
		return r
	default: // FOr
		r := -1
		for _, s := range f.Sub {
			switch s.EvalPartial(lookup) {
			case 1:
				return 1
			case 0:
				r = 0
			}
		}
		return r
	}
}

// Conjuncts returns the top-level conjuncts of f (f itself when it is
// not a conjunction).
func (f *Formula) Conjuncts() []*Formula {
	if f.Kind == FAnd {
		return f.Sub
	}
	if f.Kind == FTrue {
		return nil
	}
	return []*Formula{f}
}
