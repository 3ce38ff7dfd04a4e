// Command faure evaluates fauré-log programs over c-table databases.
//
// Usage:
//
//	faure eval -db state.fdb -program query.fl [-table pred] [-stats]
//	faure worlds -db state.fdb
//	faure check -program query.fl
//
// Database files hold c-variable declarations and conditioned facts:
//
//	var $x in {0, 1}.
//	fwd(F0, 1, 2)[$x = 1].
//	fwd(F0, 1, 3)[$x = 0].
//
// Program files hold fauré-log rules:
//
//	reach(f, a, b) :- fwd(f, a, b).
//	reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"faure"
	"faure/internal/obsflag"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "eval":
		err = cmdEval(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "worlds":
		err = cmdWorlds(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "lossless":
		err = cmdLossless(os.Args[2:])
	case "topo":
		err = cmdTopo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faure:", err)
		os.Exit(obsflag.ExitCode(err))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  faure eval -db <file> -program <file> [-table <pred>] [-stats] [-trace] [-metrics text|json] [-debug-addr :8080]
             [-timeout 1s] [-max-solver-steps N] [-max-tuples N]   (budget trip -> partial output, exit code 3)
  faure explain -db <file> -program <file> -pred <p> [-tuple "1, 4"] [-json]   (why is this tuple derived?)
  faure explain -db <file> -program <file> -serve -debug-addr :8080            (browse trees on /debug/explain)
  faure explain -target <file> [-known <file>]... [-update <file>] [-state <file>] [-json]
                                                                               (why this verdict? what's missing?)
  faure worlds -db <file>
  faure check -program <file>
  faure sql -db <file> -program <file>   (print the compiled SQL script)
  faure lossless -db <file> -program <file>   (brute-force check the loss-lessness property)
  faure topo -file <file> [-flow f0]          (compile a topology to a database file)`)
}

func loadDB(path string) (*faure.Database, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return faure.ParseDatabase(string(src))
}

func loadProgram(path string) (*faure.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return faure.Parse(string(src))
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file (c-table facts and var declarations)")
	progPath := fs.String("program", "", "fauré-log program file")
	table := fs.String("table", "", "print only this derived table")
	stats := fs.Bool("stats", false, "print evaluation statistics")
	noPrune := fs.Bool("no-eager-prune", false, "defer contradictory-tuple removal to the end")
	noAbsorb := fs.Bool("no-absorb", false, "disable semantic absorption dedup")
	noIndex := fs.Bool("no-index", false, "disable hash-index probes")
	backend := fs.String("backend", "native", "evaluation backend: native or sql")
	simplify := fs.Bool("simplify", false, "simplify derived conditions for display")
	explain := fs.String("explain", "", "record provenance and print derivations of this predicate")
	trace := fs.Bool("trace", false, "record provenance and print the derivation tree of every derived tuple")
	ob := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *progPath == "" {
		return fmt.Errorf("eval requires -db and -program")
	}
	if err := ob.Init(); err != nil {
		return err
	}
	defer func() { _ = ob.Close(os.Stderr) }()
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	var res *faure.Result
	var truncated *faure.BudgetExceeded
	// rec stays nil on the sql backend, which records no provenance.
	var rec *faure.ProvRecorder
	switch *backend {
	case "native":
		if *explain != "" || *trace {
			rec = faure.NewProvenance(0)
		}
		res, err = faure.Eval(prog, db, faure.Options{
			NoEagerPrune: *noPrune, NoAbsorb: *noAbsorb, NoIndex: *noIndex,
			Prov:     rec,
			Observer: ob.Observer(),
			Budget:   ob.Budget(),
		})
		if err != nil {
			return err
		}
		truncated = res.Truncated
	case "sql":
		out, sqlStats, err := faure.EvalSQL(prog, db, faure.SQLOptions{NoIndex: *noIndex, Budget: ob.Budget()})
		if err != nil {
			return err
		}
		res = &faure.Result{DB: out, Stats: faure.Stats{
			SQLTime: sqlStats.SQLTime, SolverTime: sqlStats.SolverTime,
			Derived: int64(sqlStats.Inserted), Pruned: int64(sqlStats.Deleted), Iterations: int64(sqlStats.Iterations),
		}}
		truncated = sqlStats.Truncated
	default:
		return fmt.Errorf("unknown backend %q (native or sql)", *backend)
	}
	// The recorder knows tuples by identity, which hashes the condition,
	// so the trees are built before -simplify rewrites the conditions.
	derivs, derivErr := derivations(rec, res.DB, prog, *explain, *trace)
	if *simplify {
		if err := simplifyTables(res.DB, prog); err != nil {
			return err
		}
	}
	if *table != "" {
		tbl := res.DB.Table(*table)
		if tbl == nil {
			return fmt.Errorf("no table %q in the result", *table)
		}
		fmt.Print(tbl)
	} else {
		for _, n := range idbNames(prog) {
			if tbl := res.DB.Table(n); tbl != nil {
				fmt.Print(tbl)
			}
		}
	}
	if derivErr != nil {
		return derivErr
	}
	fmt.Print(derivs)
	if *stats {
		s := res.Stats
		fmt.Printf("sql=%v solver=%v derived=%d pruned=%d absorbed=%d iterations=%d sat-calls=%d\n",
			s.SQLTime, s.SolverTime, s.Derived, s.Pruned, s.Absorbed, s.Iterations, s.SatCalls)
	}
	if truncated != nil {
		// The tables above are the partial result; the trip is reported
		// on stderr and as exit code 3 via main.
		return fmt.Errorf("result incomplete: %w", truncated)
	}
	return nil
}

// idbNames returns the predicates the program derives, sorted.
func idbNames(prog *faure.Program) []string {
	idb := prog.IDB()
	names := make([]string, 0, len(idb))
	for n := range idb {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// derivations renders the derivation trees -explain and -trace ask
// for: every tuple of pred, then (with all) every tuple of each
// derived predicate. rec is nil when the backend recorded no
// provenance.
func derivations(rec *faure.ProvRecorder, db *faure.Database, prog *faure.Program, pred string, all bool) (string, error) {
	if pred == "" && !all {
		return "", nil
	}
	noPred := fmt.Errorf("no traced derivations for %q (sql backend does not trace)", pred)
	if rec == nil {
		if pred != "" {
			return "", noPred
		}
		return "", fmt.Errorf("-trace requires the native backend (sql backend does not trace)")
	}
	x := faure.NewProvExplainer(rec, db)
	var b strings.Builder
	write := func(p string) bool {
		trees := x.ExplainAll(p)
		if len(trees) == 0 {
			return false
		}
		fmt.Fprintf(&b, "derivations of %s:\n", p)
		for _, tr := range trees {
			b.WriteString(tr.String())
		}
		return true
	}
	if pred != "" && !write(pred) {
		return "", noPred
	}
	if all {
		for _, n := range idbNames(prog) {
			write(n)
		}
	}
	return b.String(), nil
}

func cmdWorlds(args []string) error {
	fs := flag.NewFlagSet("worlds", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	limit := fs.Int("limit", 64, "maximum number of worlds to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("worlds requires -db")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	var finite []string
	for name, d := range db.Doms {
		if d.Finite() {
			finite = append(finite, name)
		}
	}
	sort.Strings(finite)
	if len(finite) == 0 {
		return fmt.Errorf("no finite-domain c-variables to enumerate")
	}
	n := 0
	err = db.EachWorld(finite, func(w faure.World) bool {
		n++
		if n > *limit {
			return false
		}
		fmt.Printf("world %d:", n)
		for _, name := range finite {
			fmt.Printf(" $%s=%v", name, w.Assign[name])
		}
		fmt.Println()
		names := make([]string, 0, len(w.Tables))
		for t := range w.Tables {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			for _, row := range w.Tables[t] {
				fmt.Printf("  %s%v\n", t, row)
			}
		}
		return true
	})
	return err
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	progPath := fs.String("program", "", "fauré-log program file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *progPath == "" {
		return fmt.Errorf("check requires -program")
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d rules\n", len(prog.Rules))
	return nil
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	progPath := fs.String("program", "", "fauré-log program file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *progPath == "" {
		return fmt.Errorf("sql requires -db and -program")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	script, err := faure.CompileSQL(prog, db)
	if err != nil {
		return err
	}
	fmt.Print(script)
	return nil
}

// simplifyTables rewrites every derived table's conditions into their
// simplified display form. It builds new tuple slices: a result's
// tables share their arrays (see faure.Result).
func simplifyTables(db *faure.Database, prog *faure.Program) error {
	s := faure.NewSolver(db.Doms)
	for pred := range prog.IDB() {
		tbl := db.Table(pred)
		if tbl == nil {
			continue
		}
		simplified := make([]faure.Tuple, len(tbl.Tuples))
		for i, tp := range tbl.Tuples {
			c, err := faure.SimplifyCondition(s, tp.Condition())
			if err != nil {
				return err
			}
			simplified[i] = faure.NewTuple(tp.Values, c)
		}
		tbl.Tuples = simplified
	}
	return nil
}

func cmdLossless(args []string) error {
	fs := flag.NewFlagSet("lossless", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	progPath := fs.String("program", "", "fauré-log program file")
	limit := fs.Int("limit", 10, "stop after this many mismatches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *progPath == "" {
		return fmt.Errorf("lossless requires -db and -program")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	var finite []string
	for name, d := range db.Doms {
		if d.Finite() {
			finite = append(finite, name)
		}
	}
	sort.Strings(finite)
	if len(finite) == 0 {
		return fmt.Errorf("no finite-domain c-variables to enumerate")
	}
	mis, err := faure.CheckLossless(prog, db, finite, *limit)
	if err != nil {
		return err
	}
	if len(mis) == 0 {
		fmt.Printf("loss-less: symbolic and per-world evaluation agree over %d variables\n", len(finite))
		return nil
	}
	for _, m := range mis {
		fmt.Println(m)
	}
	return fmt.Errorf("%d mismatches", len(mis))
}

func cmdTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	path := fs.String("file", "", "topology file (protect/static lines)")
	flow := fs.String("flow", "F0", "flow identifier for the forwarding column")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("topo requires -file")
	}
	src, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	topo, err := faure.ParseTopology(string(src))
	if err != nil {
		return err
	}
	db := topo.ForwardingTable(*flow)
	fmt.Print(faure.FormatDatabase(db))
	return nil
}
