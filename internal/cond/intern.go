package cond

// Hash-consing. Every canonicalised formula node is interned in a
// global sharded table, so logically identical formulas are the same
// *Formula pointer and sub-formulas are structurally shared instead of
// re-allocated. Identity checks are pointer compares, memo and dedup
// keys are the node's interned id, and per-node metadata (atom count,
// free c-variable set, structural hash) is computed once, when the
// node first enters the table.
//
// Concurrency contract: the table is process-wide and lock-striped —
// one mutex per shard, shard selected by the node's structural hash —
// so concurrent evaluations (faure-serve evaluates reader requests
// concurrently) can build formulas at the same time. A lookup
// holds exactly one shard lock and performs no allocation on a hit.
// An atom and its complement share a shard (hashNode), so a new atom
// is linked to its complement under that same lock.
// Interned nodes are immutable (the lazy Key cache is an atomic
// pointer whose racing stores write identical strings), so formulas
// may be read from any number of goroutines without synchronisation.
//
// Determinism contract: intern ids are assigned in first-intern order,
// which depends on what the process evaluated before and, under
// concurrent evaluations, on goroutine interleaving. Ids therefore
// identify nodes within a process but must NEVER order anything
// user-visible — canonical child ordering is the purely structural
// compareNode, and serialisation (String, Key) depends only on
// structure, so output is bit-identical across runs and processes.
//
// Growth contract: interned nodes are never reclaimed. This is the
// classic hash-consing trade-off — monotonic growth bounded by the
// number of distinct canonical formulas the process ever builds, in
// exchange for O(1) identity everywhere. InternStats exposes the
// live-node gauge so the growth is observable; Evictions exists for
// dashboard stability and is always zero under this policy.

import (
	"sync"
	"sync/atomic"
)

// internShardCount is a power of two so shard selection is a mask.
const internShardCount = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Formula // structural hash → chain
}

type internTable struct {
	shards [internShardCount]internShard
	nextID atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
	live   atomic.Int64
}

var interned = func() *internTable {
	t := &internTable{}
	for i := range t.shards {
		t.shards[i].m = map[uint64][]*Formula{}
	}
	return t
}()

// newSingleton builds one of the True/False singletons, which live
// outside the table (the constructors return them directly and no
// canonical node ever has an FTrue/FFalse child).
func newSingleton(kind FKind, key string) *Formula {
	h, _ := hashNode(kind, Atom{}, nil)
	f := &Formula{Kind: kind, hash: h}
	f.id = interned.nextID.Add(1)
	f.key.Store(&key)
	return f
}

// FNV-64 primitives, inlined rather than hash/fnv so hashing a node
// allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func hashTerm(h uint64, t Term) uint64 {
	h = fnvByte(h, byte(t.Kind))
	if t.Kind == KInt {
		return fnvUint64(h, uint64(t.I))
	}
	return fnvString(h, t.S)
}

// hashAtomPair hashes an atom up to complement: its operator enters as
// the complementary pair it belongs to (= and !=, < and >=, <= and >),
// so an atom and its complement hash alike.
func hashAtomPair(h uint64, a Atom) uint64 {
	h = fnvUint64(h, uint64(len(a.Sum)))
	for _, t := range a.Sum {
		h = hashTerm(h, t)
	}
	h = fnvByte(h, byte(min(a.Op, a.Op.Negate())))
	return hashTerm(h, a.RHS)
}

// hashNode returns the node's structural hash h and the hash its shard
// is selected by. It depends only on the node's structure — child
// hashes, never child ids — so it is identical across runs and
// processes. The two are equal except for an atom: its shard hash is
// hashAtomPair, and h adds the atom's own operator to it, so an atom
// and its complement share a shard and one's h follows from the
// other's shard hash.
func hashNode(kind FKind, a Atom, sub []*Formula) (h, shard uint64) {
	h = fnvByte(fnvOffset64, byte(kind))
	if kind == FAtom {
		shard = hashAtomPair(h, a)
		return fnvByte(shard, byte(a.Op)), shard
	}
	h = fnvUint64(h, uint64(len(sub)))
	for _, s := range sub {
		h = fnvUint64(h, s.hash)
	}
	return h, h
}

// shallowEqual decides whether an interned node g is the node the
// constructor is about to build. Children are already interned, so
// element-wise pointer equality is full structural equality.
func shallowEqual(g *Formula, kind FKind, a Atom, sub []*Formula) bool {
	if g.Kind != kind || len(g.Sub) != len(sub) {
		return false
	}
	if kind == FAtom && !g.Atom.Equal(a) {
		return false
	}
	for i, s := range sub {
		if g.Sub[i] != s {
			return false
		}
	}
	return true
}

// find returns the node of the shard's hash chain h that is the node
// (kind, a, sub), or nil. The caller holds the shard's lock.
func (sh *internShard) find(h uint64, kind FKind, a Atom, sub []*Formula) *Formula {
	for _, g := range sh.m[h] {
		if shallowEqual(g, kind, a, sub) {
			return g
		}
	}
	return nil
}

// internNode returns the canonical node for (kind, a, sub), creating
// and registering it on first sight. sub is only read: a miss stores a
// copy, so callers may pass a scratch buffer and a hit allocates
// nothing. A new atom is linked to its complement, if that is interned,
// under the shard lock both share: whoever interns the second of the
// pair links them before releasing it, so no goroutine can obtain both
// nodes unlinked, which is what lets combine detect a ∧ ¬a with one
// pointer load.
func internNode(kind FKind, a Atom, sub []*Formula, nAtoms int) *Formula {
	h, shard := hashNode(kind, a, sub)
	sh := &interned.shards[shard&(internShardCount-1)]
	sh.mu.Lock()
	if g := sh.find(h, kind, a, sub); g != nil {
		sh.mu.Unlock()
		interned.hits.Add(1)
		return g
	}
	f := &Formula{Kind: kind, Atom: a, Sub: append([]*Formula(nil), sub...), hash: h, nAtoms: nAtoms, cvars: freeVars(kind, a, sub)}
	f.id = interned.nextID.Add(1)
	if kind == FAtom {
		neg := a.Negate()
		if c := sh.find(fnvByte(shard, byte(neg.Op)), FAtom, neg, nil); c != nil {
			f.neg.Store(c)
			c.neg.Store(f)
		}
	}
	sh.m[h] = append(sh.m[h], f)
	sh.mu.Unlock()
	interned.misses.Add(1)
	interned.live.Add(1)
	return f
}

// freeVars merges the sorted, duplicate-free c-variable names of a
// node from its children (or its atom), at intern time only.
func freeVars(kind FKind, a Atom, sub []*Formula) []string {
	if kind == FAtom {
		return sortedUniq(a.CVars(nil))
	}
	if len(sub) == 1 { // FNot shares its child's (immutable) set
		return sub[0].cvars
	}
	var vs []string
	for _, s := range sub {
		vs = append(vs, s.cvars...)
	}
	return sortedUniq(vs)
}

func sortedUniq(vs []string) []string {
	if len(vs) == 0 {
		return nil
	}
	// Insertion sort: variable sets are tiny (a handful of names).
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	w := 1
	for _, v := range vs[1:] {
		if v != vs[w-1] {
			vs[w] = v
			w++
		}
	}
	return vs[:w]
}

// InternStats is a snapshot of the global intern table's counters.
// Hits and Misses count constructor lookups since process start; Live
// is the number of distinct interned nodes. Evictions is always zero —
// interned nodes are never reclaimed under the current policy (see the
// package comment above) — and exists so reports keep a stable schema
// if an eviction policy is ever introduced.
type InternStats struct {
	Hits      int64
	Misses    int64
	Live      int64
	Evictions int64
}

// InternStatsNow reads the current counters. The snapshot is not
// atomic across fields; each counter is read independently.
func InternStatsNow() InternStats {
	return InternStats{
		Hits:   interned.hits.Load(),
		Misses: interned.misses.Load(),
		Live:   interned.live.Load(),
	}
}
