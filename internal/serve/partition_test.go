package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/obs"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// twoColumnProg is reachability over a link relation without a prefix
// column: reach(a, c) does not bind a at the column link(b, c) is read
// through, so no column partitions the program.
const twoColumnProg = `
	reach(a, b) :- link(a, b).
	reach(a, c) :- link(a, b), reach(b, c).
`

func startServer(t *testing.T, prog *faurelog.Program, base *ctable.Database, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Program: prog, Base: base, Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

func apply(t *testing.T, s *Server, u rewrite.Update) *Generation {
	t.Helper()
	gen, _, err := s.Apply(context.Background(), "", u)
	if err != nil {
		t.Fatalf("apply %v: %v", u, err)
	}
	return gen
}

// rowsIn returns tbl's rows holding v at column col, in order.
func rowsIn(tbl *ctable.Table, col int, v cond.Term) []ctable.Tuple {
	var out []ctable.Tuple
	for _, tp := range tbl.Tuples {
		if tp.Values[col] == v {
			out = append(out, tp)
		}
	}
	return out
}

// sameRows reports whether a and b hold the same values and the same
// condition pointers, in the same order.
func sameRows(a, b []ctable.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y ctable.Tuple) bool {
		return slices.Equal(x.Values, y.Values) && x.Condition() == y.Condition()
	})
}

// checkAgainstScratch requires every derived relation of gen to equal
// a from-scratch evaluation of gen.Base up to equivalence of each data
// part's combined condition, and returns that evaluation.
func checkAgainstScratch(t *testing.T, prog *faurelog.Program, gen *Generation) *faurelog.Result {
	t.Helper()
	ref, err := faurelog.Eval(prog, gen.Base, faurelog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := solver.New(gen.Base.Doms)
	combined := func(tbl *ctable.Table) map[string]*cond.Formula {
		m := map[string]*cond.Formula{}
		for _, tp := range tbl.Tuples {
			c := m[tp.DataKey()]
			if c == nil {
				c = cond.False()
			}
			m[tp.DataKey()] = cond.Or(c, tp.Condition())
		}
		return m
	}
	for pred := range prog.IDB() {
		got, want := combined(gen.DB.Table(pred)), combined(ref.DB.Table(pred))
		for k := range want {
			if got[k] == nil {
				got[k] = cond.False()
			}
		}
		for k, cg := range got {
			cw := want[k]
			if cw == nil {
				cw = cond.False()
			}
			eq, err := s.Equivalent(cg, cw)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("generation %d, %s(%s): served %v, from scratch %v", gen.Seq, pred, k, cg, cw)
			}
		}
	}
	return ref
}

// checkWorlds requires every derived relation of gen to hold, in every
// valuation of gen.Base's c-variables, exactly the ground rows that a
// from-scratch evaluation of gen.Base holds in it.
func checkWorlds(t *testing.T, prog *faurelog.Program, gen *Generation) {
	t.Helper()
	ref, err := faurelog.Eval(prog, gen.Base, faurelog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ground := func(tbl *ctable.Table, w map[string]cond.Term) map[string]bool {
		m := map[string]bool{}
		for _, tp := range tbl.Tuples {
			holds, err := tp.Condition().Subst(w).EvalGround()
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				continue
			}
			vals := slices.Clone(tp.Values)
			for i, v := range vals {
				if v.IsCVar() {
					vals[i] = w[v.S]
				}
			}
			m[ctable.NewTuple(vals, nil).DataKey()] = true
		}
		return m
	}
	var names []string
	for name := range gen.Base.Doms {
		names = append(names, name)
	}
	err = solver.New(gen.Base.Doms).Worlds(names, func(w map[string]cond.Term) bool {
		for pred := range prog.IDB() {
			if got, want := ground(gen.DB.Table(pred), w), ground(ref.DB.Table(pred), w); !maps.Equal(got, want) {
				t.Fatalf("generation %d, %s in world %v: served %v, from scratch %v", gen.Seq, pred, w, got, want)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScopedApplyMatchesScratch applies random insert and delete
// sequences, with c-variables and conditions outside the partition
// column, under the partitioned reachability program and the
// unpartitioned two-column one. Under the partitioned program some
// base rows hold a c-variable at the partition column, which deletes
// of constant tuples can remove. After every update the generation
// must equal a from-scratch evaluation of its base; when the update
// ran scoped, every partition it does not touch keeps the parent
// generation's rows in order, and every partition a scoped full
// evaluation re-derived holds exactly the from-scratch rows.
func TestScopedApplyMatchesScratch(t *testing.T) {
	parts := []cond.Term{cond.Str("p0"), cond.Str("p1"), cond.Str("p2")}
	for _, tc := range []struct {
		name, prog, rel string
		partitioned     bool
	}{
		{"reachability", `
			reach(f, a, b) :- fwd(f, a, b).
			reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).`, "fwd", true},
		{"two-column", twoColumnProg, "link", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := faurelog.MustParse(tc.prog)
			if got := faurelog.Partition(prog) != nil; got != tc.partitioned {
				t.Fatalf("partitioned = %v, want %v", got, tc.partitioned)
			}
			var scopedRuns int
			for seed := int64(1); seed <= 30; seed++ {
				rnd := rand.New(rand.NewSource(seed))
				part := func() cond.Term { return parts[rnd.Intn(len(parts))] }
				node := func() cond.Term {
					if rnd.Intn(5) == 0 {
						return cond.CVar("u")
					}
					return cond.Int(int64(1 + rnd.Intn(4)))
				}
				row := func() []cond.Term {
					vals := []cond.Term{node(), node()}
					if tc.partitioned {
						vals = append([]cond.Term{part()}, vals...)
					}
					return vals
				}
				base := ctable.NewDatabase()
				base.DeclareVar("u", solver.EnumDomain(cond.Int(1), cond.Int(2), cond.Int(3), cond.Int(4)))
				base.DeclareVar("v", solver.BoolDomain())
				base.DeclareVar("p", solver.EnumDomain(parts...))
				attrs := []string{"a", "b", "c"}[:len(row())]
				tbl := ctable.NewTable(tc.rel, attrs...)
				for i := 0; i < 5+rnd.Intn(5); i++ {
					var c *cond.Formula
					if k := rnd.Intn(3); k > 0 {
						c = cond.Compare(cond.CVar("v"), cond.Eq, cond.Int(int64(k-1)))
					}
					vals := row()
					if tc.partitioned && rnd.Intn(8) == 0 {
						vals[0] = cond.CVar("p")
						c = cond.Compare(cond.CVar("p"), cond.Eq, part())
					}
					tbl.MustInsert(c, vals...)
				}
				base.AddTable(tbl)
				reg := obs.NewRegistry()
				s := startServer(t, prog, base, func(c *Config) { c.Obs = reg })
				for step := 0; step < 6; step++ {
					parent := s.Current()
					var u rewrite.Update
					for i := 0; i < 1+rnd.Intn(2); i++ {
						if rnd.Intn(2) == 0 {
							u.Inserts = append(u.Inserts, rewrite.Change{Pred: tc.rel, Values: row()})
							continue
						}
						vals := row()
						if rows := parent.Base.Table(tc.rel).Tuples; len(rows) > 0 && rnd.Intn(3) > 0 {
							vals = slices.Clone(rows[rnd.Intn(len(rows))].Values)
							if tc.partitioned && !vals[0].IsConst() {
								vals[0] = part()
							}
						}
						u.Deletes = append(u.Deletes, rewrite.Change{Pred: tc.rel, Values: vals})
					}
					before := counters(reg)["serve.update_scope.partition"]
					gen := apply(t, s, u)
					if tc.partitioned && len(u.Deletes) == 0 && partitionCVar(parent.DB) {
						// EvalIncrement may bind the partition variable to a
						// c-variable where a from-scratch evaluation binds the
						// constant the join equates it with, or the reverse:
						// the data parts differ, the worlds agree.
						checkWorlds(t, prog, gen)
						continue
					}
					ref := checkAgainstScratch(t, prog, gen)
					if counters(reg)["serve.update_scope.partition"] == before {
						continue
					}
					scopedRuns++
					touched := map[cond.Term]bool{}
					for _, c := range append(slices.Clone(u.Inserts), u.Deletes...) {
						touched[c.Values[0]] = true
					}
					for _, p := range parts {
						got := rowsIn(gen.DB.Table("reach"), 0, p)
						switch {
						case !touched[p]:
							if !sameRows(got, rowsIn(parent.DB.Table("reach"), 0, p)) {
								t.Fatalf("seed %d step %d: untouched partition %v changed under %v", seed, step, p, u)
							}
						case len(u.Deletes) > 0:
							if !sameRows(got, rowsIn(ref.DB.Table("reach"), 0, p)) {
								t.Fatalf("seed %d step %d: re-derived partition %v differs from scratch under %v", seed, step, p, u)
							}
						}
					}
				}
			}
			if tc.partitioned && scopedRuns == 0 {
				t.Fatal("no update ran scoped")
			}
		})
	}
}

// partitionCVar reports whether a row of db's fwd or reach holds a
// c-variable at column 0, the reachability program's partition column.
func partitionCVar(db *ctable.Database) bool {
	for _, pred := range []string{"fwd", "reach"} {
		for _, tp := range db.Table(pred).Tuples {
			if !tp.Values[0].IsConst() {
				return true
			}
		}
	}
	return false
}

func counters(reg *obs.Registry) map[string]int64 { return reg.Snapshot().Counters }

// TestUpdateLedger checks the per-update scope and evaluator counters
// and the stage durations, for an insert and a delete, under the
// partitioned test program and the unpartitioned two-column one.
func TestUpdateLedger(t *testing.T) {
	fwdBase, err := faurelog.ParseDatabase(testBaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	linkBase, err := faurelog.ParseDatabase("var $x in {0, 1}.\nlink(1, 2).\nlink(2, 3)[$x = 1].\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		prog           *faurelog.Program
		base           *ctable.Database
		insert, delete string
		scope          string
	}{
		{"partitioned", testProg(t), fwdBase, "+fwd(F0, 4, 5).", "-fwd(F0, 2, 4).", "serve.update_scope.partition"},
		{"two-column", faurelog.MustParse(twoColumnProg), linkBase, "+link(3, 4).", "-link(1, 2).", "serve.update_scope.all"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := startServer(t, tc.prog, tc.base, func(c *Config) {
				c.Obs = reg
				c.WALPath = filepath.Join(t.TempDir(), "serve.wal")
			})
			apply(t, s, mustUpdate(t, tc.insert))
			if c := counters(reg); c[tc.scope] != 1 || c["serve.update_eval.increment"] != 1 || c["serve.update_eval.full"] != 0 {
				t.Fatalf("after insert: %v", c)
			}
			apply(t, s, mustUpdate(t, tc.delete))
			if c := counters(reg); c[tc.scope] != 2 || c["serve.update_eval.increment"] != 1 || c["serve.update_eval.full"] != 1 {
				t.Fatalf("after delete: %v", c)
			}
			durs := reg.Snapshot().DurationsMS
			for _, stage := range []string{"rewrite", "eval", "splice", "wal"} {
				if n := durs["serve.update_stage."+stage].Count; n != 2 {
					t.Errorf("serve.update_stage.%s observed %d times, want 2", stage, n)
				}
			}
			checkAgainstScratch(t, tc.prog, s.Current())
		})
	}
}

// TestScopedApplyFallbacks covers the updates and bases the scoped
// apply must recognise: a c-variable at the partition column sends the
// update and every later one down the unscoped path; an update of a
// relation the program does not name leaves every derived row in
// place; base rows of a derived relation and rows of the wrong arity
// are handled like the engine handles them.
func TestScopedApplyFallbacks(t *testing.T) {
	scopes := func(reg *obs.Registry) string {
		c := counters(reg)
		return fmt.Sprintf("partition=%d all=%d", c["serve.update_scope.partition"], c["serve.update_scope.all"])
	}
	t.Run("c-variable at the partition column", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := newTestServer(t, func(c *Config) { c.Obs = reg })
		apply(t, s, insertUpdate(t, 4))
		apply(t, s, mustUpdate(t, "+fwd($x, 4, 9)."))
		apply(t, s, insertUpdate(t, 5))
		apply(t, s, mustUpdate(t, "-fwd(F0, 2, 4)."))
		if got, want := scopes(reg), "partition=1 all=3"; got != want {
			t.Errorf("scopes %s, want %s", got, want)
		}
		checkAgainstScratch(t, testProg(t), s.Current())
	})
	t.Run("delete of the base's last c-variable at the partition column", func(t *testing.T) {
		// The delete drops fwd($p, 4, 9), so the new base holds constants
		// only, but the parent generation still holds the rows derived
		// from it: the update must run unscoped to drop them, and the
		// next update can run scoped again.
		base, err := faurelog.ParseDatabase(testBaseSrc + `
			var $p in {F0, F1}.
			fwd($p, 4, 9)[$p = F0].
		`)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s := startServer(t, testProg(t), base, func(c *Config) { c.Obs = reg })
		for _, src := range []string{"-fwd(F0, 4, 9).", "+fwd(F1, 1, 2)."} {
			checkAgainstScratch(t, testProg(t), apply(t, s, mustUpdate(t, src)))
		}
		if got, want := scopes(reg), "partition=1 all=1"; got != want {
			t.Errorf("scopes %s, want %s", got, want)
		}
	})
	t.Run("relation the program does not name", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := newTestServer(t, func(c *Config) { c.Obs = reg })
		for _, src := range []string{"+node(4).", "-node(4).\n+node(5)."} {
			parent := s.Current()
			gen := apply(t, s, mustUpdate(t, src))
			if !sameRows(gen.DB.Table("reach").Tuples, parent.DB.Table("reach").Tuples) {
				t.Fatalf("%s moved derived rows", src)
			}
			if gen.DB.Table("node") != gen.Base.Table("node") {
				t.Fatalf("%s: the generation does not serve the base's node table", src)
			}
		}
		if got, want := scopes(reg), "partition=2 all=0"; got != want {
			t.Errorf("scopes %s, want %s", got, want)
		}
	})
	t.Run("base holds derived rows", func(t *testing.T) {
		base, err := faurelog.ParseDatabase(testBaseSrc + `
			fwd(F1, 1, 2).
			reach(F0, 4, 1)[$x = 1].
			reach(F1, 7, 8).
			reach(F2, 1, 9).
		`)
		if err != nil {
			t.Fatal(err)
		}
		s := startServer(t, testProg(t), base, nil)
		for _, src := range []string{"+fwd(F1, 2, 7).", "-fwd(F0, 1, 2).", "+fwd(F2, 9, 1).\n-fwd(F1, 1, 2)."} {
			gen := apply(t, s, mustUpdate(t, src))
			ref := checkAgainstScratch(t, testProg(t), gen)
			if got, want := len(gen.DB.Table("reach").Tuples), len(ref.DB.Table("reach").Tuples); got != want {
				t.Fatalf("after %s: %d reach rows, from scratch %d", src, got, want)
			}
		}
	})
	t.Run("rows of the wrong arity", func(t *testing.T) {
		base, err := faurelog.ParseDatabase(testBaseSrc + "fwd(F1, 1, 2).\n")
		if err != nil {
			t.Fatal(err)
		}
		fwd := base.Table("fwd")
		fwd.Tuples = append(fwd.Tuples, ctable.Tuple{}, ctable.NewTuple([]cond.Term{cond.Str("F1")}, nil))
		reg := obs.NewRegistry()
		s := startServer(t, testProg(t), base, func(c *Config) { c.Obs = reg })
		for _, src := range []string{"+fwd(F1, 2, 3).", "-fwd(F1, 1, 2).", "-fwd(F0, 1, 2)."} {
			checkAgainstScratch(t, testProg(t), apply(t, s, mustUpdate(t, src)))
		}
		if got, want := scopes(reg), "partition=3 all=0"; got != want {
			t.Errorf("scopes %s, want %s", got, want)
		}
	})
}
