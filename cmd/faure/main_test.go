package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func demoFiles(t *testing.T) (db, prog string) {
	t.Helper()
	db = writeFile(t, "state.fdb", `
		var $x in {0, 1}.
		fwd(F0, 1, 2)[$x = 1].
		fwd(F0, 1, 3)[$x = 0].
		fwd(F0, 2, 4).
		fwd(F0, 3, 4).
	`)
	prog = writeFile(t, "query.fl", `
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	return db, prog
}

func TestCmdEvalVariants(t *testing.T) {
	db, prog := demoFiles(t)
	cases := [][]string{
		{"-db", db, "-program", prog},
		{"-db", db, "-program", prog, "-table", "reach", "-stats"},
		{"-db", db, "-program", prog, "-simplify"},
		{"-db", db, "-program", prog, "-explain", "reach"},
		{"-db", db, "-program", prog, "-backend", "sql"},
		{"-db", db, "-program", prog, "-no-index", "-no-absorb", "-no-eager-prune"},
	}
	for _, args := range cases {
		if err := cmdEval(args); err != nil {
			t.Errorf("cmdEval(%v): %v", args, err)
		}
	}
}

// capture runs fn with os.Stdout and os.Stderr redirected and returns
// what was written to each.
func capture(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, _ := os.Pipe()
	re, we, _ := os.Pipe()
	os.Stdout, os.Stderr = wo, we
	err = fn()
	os.Stdout, os.Stderr = oldOut, oldErr
	wo.Close()
	we.Close()
	bo, _ := io.ReadAll(ro)
	be, _ := io.ReadAll(re)
	return string(bo), string(be), err
}

func TestCmdEvalTrace(t *testing.T) {
	db, prog := demoFiles(t)
	out, _, err := capture(t, func() error {
		return cmdEval([]string{"-db", db, "-program", prog, "-trace"})
	})
	if err != nil {
		t.Fatalf("cmdEval -trace: %v", err)
	}
	if !strings.Contains(out, "derivations of reach") {
		t.Errorf("-trace output missing derivation header:\n%s", out)
	}
	// The recursive rule's derivation tree nests its reach premise.
	if !strings.Contains(out, "reach(F0, 1, 4)") {
		t.Errorf("-trace output missing recursive derivation:\n%s", out)
	}
	// The sql backend does not trace.
	if err := cmdEval([]string{"-db", db, "-program", prog, "-trace", "-backend", "sql"}); err == nil {
		t.Error("cmdEval -trace -backend sql should fail")
	}
}

// TestCmdEvalSimplifyExplain: -simplify rewrites conditions after the
// derivation trees are built, so tuples whose condition simplifies
// still print the rule that derived them.
func TestCmdEvalSimplifyExplain(t *testing.T) {
	db := writeFile(t, "state.fdb", `
		var $x in {0, 1}.
		fwd(F0, 1, 2)[$x = 1 || $x = 0].
		fwd(F0, 2, 4).
	`)
	_, prog := demoFiles(t)
	for _, mode := range [][]string{{"-explain", "reach"}, {"-trace"}} {
		args := append([]string{"-db", db, "-program", prog, "-simplify"}, mode...)
		out, _, err := capture(t, func() error { return cmdEval(args) })
		if err != nil {
			t.Fatalf("cmdEval %v: %v", args, err)
		}
		for _, tuple := range []string{"reach(F0, 1, 2)", "reach(F0, 1, 4)"} {
			found := false
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, tuple) && strings.Contains(line, "⇐") {
					found = true
				}
			}
			if !found {
				t.Errorf("%v: no rule line for %s:\n%s", mode, tuple, out)
			}
		}
	}
}

func TestCmdEvalMetrics(t *testing.T) {
	db, prog := demoFiles(t)
	_, errOut, err := capture(t, func() error {
		return cmdEval([]string{"-db", db, "-program", prog, "-metrics", "text"})
	})
	if err != nil {
		t.Fatalf("cmdEval -metrics text: %v", err)
	}
	for _, want := range []string{"eval.derived", "solver.sat_calls", "eval.sql_time"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("-metrics text missing %q:\n%s", want, errOut)
		}
	}
	_, errOut, err = capture(t, func() error {
		return cmdEval([]string{"-db", db, "-program", prog, "-metrics", "json"})
	})
	if err != nil {
		t.Fatalf("cmdEval -metrics json: %v", err)
	}
	if !strings.Contains(errOut, `"counters"`) {
		t.Errorf("-metrics json not JSON:\n%s", errOut)
	}
	if err := cmdEval([]string{"-db", db, "-program", prog, "-metrics", "xml"}); err == nil {
		t.Error("unknown -metrics format should fail")
	}
}

func TestCmdEvalErrors(t *testing.T) {
	db, prog := demoFiles(t)
	cases := [][]string{
		{},
		{"-db", db},
		{"-db", db, "-program", prog, "-table", "nope"},
		{"-db", db, "-program", prog, "-backend", "oracle"},
		{"-db", "missing.fdb", "-program", prog},
		{"-db", db, "-program", "missing.fl"},
	}
	for _, args := range cases {
		if err := cmdEval(args); err == nil {
			t.Errorf("cmdEval(%v) should fail", args)
		}
	}
}

func TestCmdWorlds(t *testing.T) {
	db, _ := demoFiles(t)
	if err := cmdWorlds([]string{"-db", db}); err != nil {
		t.Errorf("cmdWorlds: %v", err)
	}
	if err := cmdWorlds([]string{"-db", db, "-limit", "1"}); err != nil {
		t.Errorf("cmdWorlds limited: %v", err)
	}
	// No finite variables to enumerate.
	empty := writeFile(t, "e.fdb", `var $p. r($p).`)
	if err := cmdWorlds([]string{"-db", empty}); err == nil {
		t.Errorf("cmdWorlds over unbounded-only db should fail")
	}
}

func TestCmdCheckAndSQL(t *testing.T) {
	db, prog := demoFiles(t)
	if err := cmdCheck([]string{"-program", prog}); err != nil {
		t.Errorf("cmdCheck: %v", err)
	}
	if err := cmdCheck([]string{"-program", writeFile(t, "bad.fl", `q(x :- r(x).`)}); err == nil {
		t.Errorf("cmdCheck on bad program should fail")
	}
	if err := cmdSQL([]string{"-db", db, "-program", prog}); err != nil {
		t.Errorf("cmdSQL: %v", err)
	}
	// Negation is supported by the SQL backend.
	negProg := writeFile(t, "neg.fl", `q(a) :- fwd(f, a, b), not fwd(f, b, a).`)
	if err := cmdSQL([]string{"-db", db, "-program", negProg}); err != nil {
		t.Errorf("cmdSQL with negation: %v", err)
	}
}

func TestCmdLossless(t *testing.T) {
	db, prog := demoFiles(t)
	if err := cmdLossless([]string{"-db", db, "-program", prog}); err != nil {
		t.Errorf("cmdLossless: %v", err)
	}
	empty := writeFile(t, "e.fdb", `var $p. r($p).`)
	if err := cmdLossless([]string{"-db", empty, "-program", prog}); err == nil {
		t.Errorf("cmdLossless without finite vars should fail")
	}
}

func TestCmdTopo(t *testing.T) {
	topo := writeFile(t, "fig1.topo", `
		protect 1 -> 2 var $x backup 3
		static 3 -> 4
	`)
	if err := cmdTopo([]string{"-file", topo}); err != nil {
		t.Errorf("cmdTopo: %v", err)
	}
	if err := cmdTopo([]string{"-file", topo, "-flow", "Flow9"}); err != nil {
		t.Errorf("cmdTopo with flow: %v", err)
	}
	if err := cmdTopo([]string{}); err == nil {
		t.Errorf("missing -file should error")
	}
	bad := writeFile(t, "bad.topo", `protect 1 -> 2`)
	if err := cmdTopo([]string{"-file", bad}); err == nil {
		t.Errorf("bad topology should error")
	}
}
