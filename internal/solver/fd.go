package solver

import (
	"errors"
	"math/bits"
	"slices"
	"sort"

	"faure/internal/cond"
)

// errFDUnsupported marks a formula outside the compiled finite-domain
// fragment (an unbounded c-variable, an assignment space past
// fdMaxSpace, or an atom that errors under some assignment). The
// caller falls back to general search, which reproduces the exact
// answer — including the exact error behaviour — so bailing is always
// sound.
var errFDUnsupported = errors.New("solver: formula outside the compiled finite-domain fragment")

// fdMaxSpace caps the assignment space a compiled table may cover: 64
// words of bitset per node. The hot RIB fragment (≤10 boolean link
// variables, one enum path variable) sits well inside it.
const fdMaxSpace = 4096

// fdTable is the compiled finite-domain lattice element attached to an
// interned formula: one bit per total assignment of the formula's
// finite-domain c-variables, set iff the formula holds there. vars is
// the formula's own sorted CVars slice (shared, read-only); an
// assignment's index is mixed-radix little-endian — vars[0] is the
// least-significant digit.
type fdTable struct {
	vars  []string
	sizes []int
	vals  [][]cond.Term
	space int
	bits  []uint64
}

// newFDTable allocates an empty (all-zero) table over vars, sorted
// c-variable names.
func (s *Solver) newFDTable(vars []string) (*fdTable, error) {
	sizes := make([]int, len(vars))
	vals := make([][]cond.Term, len(vars))
	space := 1
	for i, name := range vars {
		d, ok := s.doms[name]
		if !ok || !d.Finite() {
			return nil, errFDUnsupported
		}
		sizes[i] = len(d.Values)
		vals[i] = d.Values
		space *= sizes[i]
		if space > fdMaxSpace {
			return nil, errFDUnsupported
		}
	}
	return &fdTable{vars: vars, sizes: sizes, vals: vals, space: space, bits: make([]uint64, (space+63)/64)}, nil
}

// maskTail zeroes the bits past space in the last word so complement
// and allSet stay exact.
func (t *fdTable) maskTail() {
	if r := t.space & 63; r != 0 {
		t.bits[len(t.bits)-1] &= (1 << uint(r)) - 1
	}
}

func (t *fdTable) any() bool {
	for _, w := range t.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

func (t *fdTable) allSet() bool {
	for i, w := range t.bits {
		want := ^uint64(0)
		if i == len(t.bits)-1 {
			if r := t.space & 63; r != 0 {
				want = (1 << uint(r)) - 1
			}
		}
		if w != want {
			return false
		}
	}
	return true
}

// witnessAssignment decodes the first satisfying assignment, or nil
// when the table is empty.
func (t *fdTable) witnessAssignment() map[string]cond.Term {
	for wi, w := range t.bits {
		if w == 0 {
			continue
		}
		idx := wi*64 + bits.TrailingZeros64(w)
		m := make(map[string]cond.Term, len(t.vars))
		for k, name := range t.vars {
			m[name] = t.vals[k][idx%t.sizes[k]]
			idx /= t.sizes[k]
		}
		return m
	}
	return nil
}

// certFromFD derives the full certificate a compiled table decides:
// satisfiability with a witness, and validity, all with zero search.
func certFromFD(t *fdTable) cert {
	c := cert{fd: t}
	if t.any() {
		c.sat = 1
		c.witness = t.witnessAssignment()
	} else {
		c.sat = -1
	}
	if t.allSet() {
		c.valid = 1
	} else {
		c.valid = -1
	}
	return c
}

// compileFD compiles f into a bitset table, reusing cached child
// tables node by node across the interned DAG. Returns
// errFDUnsupported when f falls outside the fragment; any other error
// is a budget trip.
func (s *Solver) compileFD(f *cond.Formula) (*fdTable, error) {
	if !s.fdApplicable(f) {
		return nil, errFDUnsupported
	}
	return s.compileNode(f)
}

// fdApplicable reports whether every free c-variable of f has a finite
// domain and the total assignment space fits the cap.
func (s *Solver) fdApplicable(f *cond.Formula) bool {
	space := 1
	for _, name := range f.CVars() {
		d, ok := s.doms[name]
		if !ok || !d.Finite() {
			return false
		}
		space *= len(d.Values)
		if space > fdMaxSpace {
			return false
		}
	}
	return true
}

// compileNode compiles one interned DAG node, memoising the table on
// the node's certificate. Each freshly compiled node charges one
// solver step; completed nodes are cached (and pinned against eviction
// for the duration of the decision) even if a later sibling trips the
// budget, so a retry under a fresh budget resumes where it left off.
func (s *Solver) compileNode(f *cond.Formula) (*fdTable, error) {
	key := f.ID()
	if e, ok := s.cache.get(key); ok && e.c.fd != nil {
		s.pin(e)
		return e.c.fd, nil
	}
	if err := s.bud.SolverStep(); err != nil {
		return nil, err
	}
	s.stats.FDNodes++
	var t *fdTable
	var err error
	switch f.Kind {
	case cond.FAtom:
		t, err = s.atomTable(f)
	case cond.FNot:
		t, err = s.notTable(f)
	case cond.FAnd:
		t, err = s.foldTable(f, true)
	case cond.FOr:
		t, err = s.foldTable(f, false)
	default:
		return nil, errFDUnsupported
	}
	if err != nil {
		return nil, err
	}
	s.store(key, certFromFD(t))
	if e, ok := s.cache.get(key); ok {
		s.pin(e)
	}
	return t, nil
}

// atomTable evaluates an atom under every assignment of its variables
// via an odometer walk. Any assignment that errors (incomparable
// terms, non-integer sums) or leaves the atom undetermined punts the
// whole formula to search, which reproduces the search-level error
// semantics exactly.
func (s *Solver) atomTable(f *cond.Formula) (*fdTable, error) {
	t, err := s.newFDTable(f.CVars())
	if err != nil {
		return nil, err
	}
	n := len(t.vars)
	digits := make([]int, n)
	assign := make(map[string]cond.Term, n)
	for i, name := range t.vars {
		assign[name] = t.vals[i][0]
	}
	lookup := func(name string) (cond.Term, bool) {
		v, ok := assign[name]
		return v, ok
	}
	for idx := 0; idx < t.space; idx++ {
		v, known, err := f.Atom.EvalUnder(lookup)
		if err != nil || !known {
			return nil, errFDUnsupported
		}
		if v {
			t.bits[idx>>6] |= 1 << (uint(idx) & 63)
		}
		for k := 0; k < n; k++ {
			digits[k]++
			if digits[k] < t.sizes[k] {
				assign[t.vars[k]] = t.vals[k][digits[k]]
				break
			}
			digits[k] = 0
			assign[t.vars[k]] = t.vals[k][0]
		}
	}
	return t, nil
}

// notTable complements the child's table. Canonicalisation gives Not
// exactly its child's c-variables, so the bit spaces coincide.
func (s *Solver) notTable(f *cond.Formula) (*fdTable, error) {
	child, err := s.compileNode(f.Sub[0])
	if err != nil {
		return nil, err
	}
	t := &fdTable{vars: child.vars, sizes: child.sizes, vals: child.vals, space: child.space, bits: make([]uint64, len(child.bits))}
	for i, w := range child.bits {
		t.bits[i] = ^w
	}
	t.maskTail()
	return t, nil
}

// foldTable intersects (And) or unions (Or) the children's tables into
// the parent's assignment space.
func (s *Solver) foldTable(f *cond.Formula, isAnd bool) (*fdTable, error) {
	t, err := s.newFDTable(f.CVars())
	if err != nil {
		return nil, err
	}
	if isAnd {
		for i := range t.bits {
			t.bits[i] = ^uint64(0)
		}
		t.maskTail()
	}
	for _, sub := range f.Sub {
		child, err := s.compileNode(sub)
		if err != nil {
			return nil, err
		}
		t.fold(child, isAnd)
	}
	return t, nil
}

// fold merges child into t. The child's variables are a subset of t's
// (both sorted), so a merge walk assigns each parent digit its stride
// in the child's index (0 where the child ignores the variable), and
// one odometer sweep keeps the two indices in lockstep with no
// per-assignment decoding.
func (t *fdTable) fold(child *fdTable, isAnd bool) {
	cstr := make([]int, len(t.vars))
	ci, cstride := 0, 1
	for pi, v := range t.vars {
		if ci < len(child.vars) && child.vars[ci] == v {
			cstr[pi] = cstride
			cstride *= child.sizes[ci]
			ci++
		}
	}
	digits := make([]int, len(t.vars))
	cidx := 0
	for idx := 0; idx < t.space; idx++ {
		bit := child.bits[cidx>>6]>>(uint(cidx)&63)&1 == 1
		if isAnd {
			if !bit {
				t.bits[idx>>6] &^= 1 << (uint(idx) & 63)
			}
		} else if bit {
			t.bits[idx>>6] |= 1 << (uint(idx) & 63)
		}
		for k := 0; k < len(digits); k++ {
			digits[k]++
			cidx += cstr[k]
			if digits[k] < t.sizes[k] {
				break
			}
			digits[k] = 0
			cidx -= cstr[k] * t.sizes[k]
		}
	}
}

// newWorld returns the assignment space of the set tests, the world:
// the table of True over every finite-domain c-variable of the
// solver's domain map, or nil when they span more than fdMaxSpace
// assignments. A formula's world table holds one bit per assignment of
// all the world variables. The world is fixed at the solver's first
// NewCover, so a variable registered later lies outside it.
func (s *Solver) newWorld() *fdTable {
	var vars []string
	for name, d := range s.doms {
		if d.Finite() {
			vars = append(vars, name)
		}
	}
	sort.Strings(vars)
	w, err := s.newFDTable(vars)
	if err != nil {
		return nil
	}
	for i := range w.bits {
		w.bits[i] = ^uint64(0)
	}
	w.maskTail()
	return w
}

// inWorld is the world-membership check: every one of vars (sorted) is
// a world variable whose domain still has its world size.
func (s *Solver) inWorld(vars []string) bool {
	w, wi := s.world, 0
	for _, v := range vars {
		for wi < len(w.vars) && w.vars[wi] < v {
			wi++
		}
		if wi == len(w.vars) || w.vars[wi] != v || len(s.doms[v].Values) != w.sizes[wi] {
			return false
		}
	}
	return true
}

// widenedNode is a world table built by the set-test call in flight
// and not yet memoised.
type widenedNode struct {
	id   uint64
	bits []uint64
}

// wideTable returns f's world table, memoised on f's certificate
// entry. It is built bottom-up through the interned DAG: an atom's
// compiled fd table is widened into the world, and Not, And and Or
// complement, intersect or unite their children's world tables word by
// word. Each newly built node costs one solver step. The new tables
// are memoised only once f's is complete, so a budget trip memoises
// none. errFDUnsupported marks f outside the set tests' fragment: a
// variable outside the world, or an atom the fd compiler refuses.
func (s *Solver) wideTable(f *cond.Formula) ([]uint64, error) {
	if e, ok := s.cache.get(f.ID()); ok && e.c.wide != nil {
		return e.c.wide, nil
	}
	if !s.inWorld(f.CVars()) {
		return nil, errFDUnsupported
	}
	t, err := s.widenNode(f)
	if err == nil {
		for _, n := range s.widened {
			s.store(n.id, cert{wide: n.bits})
		}
	}
	clear(s.widened)
	s.widened = s.widened[:0]
	s.unpinAll()
	return t, err
}

func (s *Solver) widenNode(f *cond.Formula) ([]uint64, error) {
	switch f.Kind {
	case cond.FTrue:
		return s.world.bits, nil
	case cond.FFalse:
		return make([]uint64, len(s.world.bits)), nil
	}
	id := f.ID()
	if e, ok := s.cache.get(id); ok && e.c.wide != nil {
		return e.c.wide, nil
	}
	for _, n := range s.widened {
		if n.id == id {
			return n.bits, nil
		}
	}
	if err := s.bud.SolverStep(); err != nil {
		return nil, err
	}
	var out []uint64
	switch f.Kind {
	case cond.FAtom:
		t, err := s.compileFD(f)
		if err != nil {
			return nil, err
		}
		// Widen the atom's table: fold it into an empty world table.
		w := *s.world
		w.bits = make([]uint64, len(w.bits))
		w.fold(t, false)
		out = w.bits
	case cond.FNot:
		child, err := s.widenNode(f.Sub[0])
		if err != nil {
			return nil, err
		}
		out = make([]uint64, len(child))
		for i, w := range child {
			out[i] = ^w & s.world.bits[i]
		}
	case cond.FAnd, cond.FOr:
		for i, sub := range f.Sub {
			child, err := s.widenNode(sub)
			switch {
			case err != nil:
				return nil, err
			case i == 0:
				out = slices.Clone(child)
			case f.Kind == cond.FAnd:
				for j, w := range child {
					out[j] &= w
				}
			default:
				for j, w := range child {
					out[j] |= w
				}
			}
		}
	default:
		return nil, errFDUnsupported
	}
	s.widened = append(s.widened, widenedNode{id: id, bits: out})
	return out, nil
}

// Cover is a running union of world tables: the world assignments
// under which at least one added formula holds. It decides whether a
// formula implies the disjunction of the added ones as a subset test,
// where the solver would build and decide f ∧ ¬(g1 ∨ … ∨ gn). A cover
// dies, and stays undecided from then on, once a formula it cannot
// represent is added.
type Cover struct {
	s    *Solver
	bits []uint64 // nil once dead
}

// NewCover returns an empty cover. It is born dead, and leaves every
// decision to the solver, when the finite-domain variables span more
// than fdMaxSpace assignments or the cache or fast path is off.
func (s *Solver) NewCover() *Cover {
	if !s.worldSet {
		s.world, s.worldSet = s.newWorld(), true
	}
	c := &Cover{s: s}
	if s.world != nil && s.fastOn() {
		c.bits = make([]uint64, len(s.world.bits))
	}
	return c
}

// Add unites f's world table into the cover. A formula outside the
// fragment kills the cover. The only error is a budget trip, which
// kills it too.
func (c *Cover) Add(f *cond.Formula) error {
	if c.bits == nil {
		return nil
	}
	t, err := c.s.wideTable(f)
	if err != nil {
		c.bits = nil
		if errors.Is(err, errFDUnsupported) {
			return nil
		}
		return err
	}
	for i, w := range t {
		c.bits[i] |= w
	}
	return nil
}

// Covers reports whether f implies the disjunction of the formulas
// added so far, decided as a subset test of world tables; decided is
// false, and the question left to the solver, when the cover is dead,
// the fast path is off or f lies outside the fragment. A decision
// costs one solver step.
func (c *Cover) Covers(f *cond.Formula) (covered, decided bool, err error) {
	if c.bits == nil || !c.s.fastOn() {
		return false, false, nil
	}
	if err := c.s.bud.SolverStep(); err != nil {
		return false, false, err
	}
	t, err := c.s.wideTable(f)
	if err != nil {
		if errors.Is(err, errFDUnsupported) {
			return false, false, nil
		}
		return false, false, err
	}
	for i, w := range t {
		if w&^c.bits[i] != 0 {
			return false, true, nil
		}
	}
	return true, true, nil
}
