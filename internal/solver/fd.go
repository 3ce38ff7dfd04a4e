package solver

import (
	"errors"
	"math/bits"

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

// newFDTable allocates an empty (all-zero) table over f's c-variables.
func (s *Solver) newFDTable(f *cond.Formula) (*fdTable, error) {
	vars := f.CVars()
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
	t, err := s.newFDTable(f)
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
	t, err := s.newFDTable(f)
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
