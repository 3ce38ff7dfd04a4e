package cond

import (
	"strconv"
	"testing"
)

// benchAtoms returns w distinct pre-interned atoms. Interning them up
// front keeps the benchmarks on the hit path — the steady state of a
// long evaluation, where nearly every construction re-derives an
// already-known condition.
func benchAtoms(w int) []*Formula {
	atoms := make([]*Formula, w)
	for i := range atoms {
		atoms[i] = Compare(CVar("bv"+strconv.Itoa(i)), Eq, Int(int64(i)))
	}
	return atoms
}

// BenchmarkAtomF measures re-interning a single atom: canonicalise,
// hash (the node's and its shard's), one shard probe. Before hash-consing this path built the atom's
// string key on every construction; now it allocates nothing on a hit.
func BenchmarkAtomF(b *testing.B) {
	a := NewAtom(CVar("bench_atom"), Lt, Int(7000))
	AtomF(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AtomF(a)
	}
}

// BenchmarkAnd measures re-building an 8-conjunct formula from interned
// children: flatten into a stack buffer, sort by structure, drop
// adjacent duplicates, load each atom's complement link, one shard
// probe. A hit allocates nothing (TestConstructorHitAllocs pins it).
func BenchmarkAnd(b *testing.B) {
	atoms := benchAtoms(8)
	And(atoms...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		And(atoms...)
	}
}

// BenchmarkOrNested measures the flattening path: Or of two Or halves,
// each pre-interned, collapsing into one canonical 8-way node without
// allocating.
func BenchmarkOrNested(b *testing.B) {
	atoms := benchAtoms(8)
	l, r := Or(atoms[:4]...), Or(atoms[4:]...)
	Or(l, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Or(l, r)
	}
}

// BenchmarkEqual measures formula equality — a pointer compare under
// hash-consing, where it used to be a recursive structural walk (or a
// string-key compare).
func BenchmarkEqual(b *testing.B) {
	atoms := benchAtoms(8)
	f, g := And(atoms...), And(atoms...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Equal(g) {
			b.Fatal("interned formulas must be equal")
		}
	}
}

// BenchmarkKeyCached measures reading the lazily-built dump key after
// the first call has cached it.
func BenchmarkKeyCached(b *testing.B) {
	atoms := benchAtoms(8)
	f := And(atoms...)
	f.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkAssignAtom measures residual construction — the solver's
// hot path — on a formula where the assigned atom appears once.
func BenchmarkAssignAtom(b *testing.B) {
	atoms := benchAtoms(8)
	f := And(atoms...)
	a := atoms[3].Atom
	f.AssignAtom(a, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AssignAtom(a, true)
	}
}
