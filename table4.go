package faure

import (
	"fmt"
	"strings"
	"time"

	"faure/internal/budget"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/guard"
	"faure/internal/network"
	"faure/internal/rib"
)

// Table4Config parameterises one run of the paper's Table 4
// experiment: all-pairs reachability (q4–q5) and the three failure
// patterns (q6–q8) over a synthetic RIB-derived forwarding state.
type Table4Config struct {
	// Prefixes is the workload size (the paper sweeps 1000 → 922067).
	Prefixes int
	// Seed fixes the synthetic RIB.
	Seed int64
	// PoolSize is the link-state variable pool (≥ 3); see package rib.
	PoolSize int
	// Q7Src/Q7Dst pin q7's node pair (the paper uses 2 and 5).
	Q7Src, Q7Dst int
	// Q8Src pins q8's source (the paper uses 1).
	Q8Src int
	// Options are passed to every evaluation (ablation knobs).
	Options Options
}

func (c Table4Config) withDefaults() Table4Config {
	if c.Prefixes == 0 {
		c.Prefixes = 1000
	}
	if c.PoolSize == 0 {
		c.PoolSize = 10
	}
	if c.Q7Src == 0 {
		c.Q7Src = 2
	}
	if c.Q7Dst == 0 {
		c.Q7Dst = 5
	}
	if c.Q8Src == 0 {
		c.Q8Src = 1
	}
	return c
}

// Table4Row is one query's measurements: the evaluation's full Stats
// plus the tuples it produced. SQLTime, SolverTime and Tuples match
// the paper's columns (relational time, condition-solving time, tuples
// produced); the other counters let the bench harness emit
// machine-readable reports.
type Table4Row struct {
	Query  string
	Tuples int
	faurelog.Stats
}

// Wall is the query's evaluation time: the relational plus the
// condition-solving phase.
func (r Table4Row) Wall() time.Duration { return r.SQLTime + r.SolverTime }

// Table4Result is a full row group of Table 4 for one prefix count.
type Table4Result struct {
	Prefixes int
	Rows     []Table4Row // q4-q5, q6, q7, q8 in order
	// Truncated is set when a budget (cfg.Options.Budget) tripped
	// mid-sweep: Rows holds the queries that completed plus the partial
	// row of the query that was cut short, and the run is not an error.
	Truncated *budget.Exceeded
}

// RunTable4 regenerates one row group of the paper's Table 4: it
// builds the synthetic forwarding state, computes all-pairs
// reachability with the recursive q4–q5, then runs the failure
// patterns q6 (2-link failure), q7 (pinned pair, nested over q6) and
// q8 (at least one failure) over it, reporting per-phase times and
// tuple counts.
func RunTable4(cfg Table4Config) (result *Table4Result, err error) {
	defer guard.Recover("faure.RunTable4", &err)
	cfg = cfg.withDefaults()
	r := rib.Generate(rib.Config{Prefixes: cfg.Prefixes, PoolSize: cfg.PoolSize, Seed: cfg.Seed,
		Budget: cfg.Options.Budget})
	out := &Table4Result{Prefixes: cfg.Prefixes}
	if r.Truncated != nil {
		out.Truncated = r.Truncated
		return out, nil
	}
	db := r.ForwardingDatabase()
	if r.Truncated != nil {
		out.Truncated = r.Truncated
		return out, nil
	}

	// runQuery evaluates one query of the sweep; a budget trip records
	// the partial row and stops the sweep without erroring.
	runQuery := func(name string, prog *faurelog.Program, in *ctable.Database, table string) (*faurelog.Result, bool, error) {
		res, err := faurelog.Eval(prog, in, cfg.Options)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", name, err)
		}
		tuples := 0
		if t := res.DB.Table(table); t != nil {
			tuples = t.Len()
		}
		out.Rows = append(out.Rows, Table4Row{Query: name, Tuples: tuples, Stats: res.Stats})
		if res.Truncated != nil {
			out.Truncated = res.Truncated
			return res, false, nil
		}
		return res, true, nil
	}

	// q4–q5: all-pairs reachability.
	reachRes, ok, err := runQuery("q4-q5", network.ReachabilityProgram(), db, "reach")
	if err != nil {
		return nil, err
	}
	if !ok {
		return out, nil
	}

	// q6: reachability under the 2-link-failure pattern.
	res6, ok, err := runQuery("q6", network.TwoLinkFailureProgram("x", "y", "z"), reachRes.DB, "t1")
	if err != nil {
		return nil, err
	}
	if !ok {
		return out, nil
	}

	// q7: nested query over q6's output, pinned to one node pair.
	if _, ok, err = runQuery("q7", network.PinnedPairFailureProgram(cfg.Q7Src, cfg.Q7Dst, "y"), res6.DB, "t2"); err != nil {
		return nil, err
	} else if !ok {
		return out, nil
	}

	// q8: at-least-one-failure from a pinned source.
	if _, _, err = runQuery("q8", network.AtLeastOneFailureProgram(cfg.Q8Src, "y", "z"), reachRes.DB, "t3"); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders row groups in the paper's Table 4 layout.
func FormatTable4(results []*Table4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s", "#prefix")
	for _, q := range []string{"q4-q5", "q6", "q7", "q8"} {
		fmt.Fprintf(&b, " | %-28s", q+" (sql / solver / #tuples)")
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 9+4*31))
	b.WriteByte('\n')
	for _, res := range results {
		fmt.Fprintf(&b, "%-9d", res.Prefixes)
		for _, row := range res.Rows {
			fmt.Fprintf(&b, " | %9s %9s %8d", fmtDur(row.SQLTime), fmtDur(row.SolverTime), row.Tuples)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
