// Package faure is a Go implementation of Fauré, the partial approach
// to network analysis of Lan, Gui and Wang (HotNets '21): loss-less
// modeling of uncertain networks with conditional tables (c-tables)
// queried through the datalog extension fauré-log, and
// relative-complete verification built from constraint subsumption
// (program containment reduced to fauré-log evaluation) and update
// rewriting.
//
// This package is the public façade: it re-exports the stable types of
// the internal packages and offers the high-level entry points used by
// the examples, the CLI tools and the benchmarks.
//
// # Quick start
//
//	db, _ := faure.ParseDatabase(`
//	    var $x in {0, 1}.
//	    fwd(F0, 1, 2)[$x = 1].
//	    fwd(F0, 1, 3)[$x = 0].
//	    fwd(F0, 2, 4).
//	    fwd(F0, 3, 4).
//	`)
//	prog, _ := faure.Parse(`
//	    reach(f, a, b) :- fwd(f, a, b).
//	    reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
//	`)
//	res, _ := faure.Eval(prog, db, faure.Options{})
//	fmt.Print(res.DB.Table("reach"))
//
// The single c-table answer is loss-less: querying it is equivalent to
// querying each of the concrete networks it represents (here, the two
// failure worlds of $x).
package faure

import (
	"context"
	"io"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/guard"
	"faure/internal/lossless"
	"faure/internal/minisql"
	"faure/internal/network"
	"faure/internal/obs"
	"faure/internal/prov"
	"faure/internal/rewrite"
	"faure/internal/rib"
	"faure/internal/serve"
	"faure/internal/solver"
	"faure/internal/verify"
)

// Core data-model types.
type (
	// Term is a c-domain symbol: a string or integer constant, or a
	// c-variable.
	Term = cond.Term
	// Formula is a condition over c-variables.
	Formula = cond.Formula
	// Tuple is a conditioned row of a c-table.
	Tuple = ctable.Tuple
	// Table is a c-table.
	Table = ctable.Table
	// Database is a set of c-tables plus c-variable domains.
	Database = ctable.Database
	// Domain is the value set of a c-variable.
	Domain = solver.Domain
	// Domains maps c-variable names to domains.
	Domains = solver.Domains
	// Solver decides satisfiability/implication of conditions.
	Solver = solver.Solver
	// World is one concrete instantiation of a database.
	World = ctable.World
	// InternStats is a snapshot of the global condition intern table
	// (hash-consed formula DAG) counters.
	InternStats = cond.InternStats
)

// CondInternStats reads the current counters of the global condition
// intern table: constructor hits/misses since process start and the
// number of live (distinct, never-reclaimed) formula nodes.
func CondInternStats() InternStats { return cond.InternStatsNow() }

// Fauré-log types.
type (
	// Program is a fauré-log program.
	Program = faurelog.Program
	// Rule is one fauré-log rule.
	Rule = faurelog.Rule
	// Options tunes evaluation (ablation knobs included).
	Options = faurelog.Options
	// Result is an evaluation outcome: derived database plus stats.
	Result = faurelog.Result
	// Stats is the sql/solver phase breakdown of an evaluation.
	Stats = faurelog.Stats
)

// Verification types.
type (
	// Constraint is a panic-query constraint program.
	Constraint = containment.Constraint
	// Schema optionally types base-relation attributes for the
	// containment tests.
	Schema = containment.Schema
	// Update is a set of tuple insertions and deletions.
	Update = rewrite.Update
	// Change is one inserted or deleted tuple.
	Change = rewrite.Change
	// Verifier runs the relative-complete test ladder.
	Verifier = verify.Verifier
	// Report is a verification outcome.
	Report = verify.Report
	// Verdict is Holds / Violated / Conditional / Unknown.
	Verdict = verify.Verdict
	// ReportExplanation is a Report unfolded for operators: undecided
	// atoms, c-variables, deciding resolutions, derivation trees.
	ReportExplanation = verify.ReportExplanation
	// Flip is one single-variable resolution that decides a constraint.
	Flip = verify.Flip
)

// Verdicts.
const (
	Unknown     = verify.Unknown
	Holds       = verify.Holds
	Violated    = verify.Violated
	Conditional = verify.Conditional
)

// Network-substrate types.
type (
	// Topology is a fast-reroute configuration (protected links with
	// failure c-variables and backups).
	Topology = network.Topology
	// ProtectedLink is a primary link with failure variable and backup.
	ProtectedLink = network.ProtectedLink
	// Link is a plain directed link.
	Link = network.Link
	// RIB is a synthetic BGP routing table (the Table 4 workload).
	RIB = rib.RIB
	// RIBConfig tunes the synthetic RIB generator.
	RIBConfig = rib.Config
)

// Term constructors.
var (
	// Str builds a string-constant term.
	Str = cond.Str
	// Int builds an integer-constant term.
	Int = cond.Int
	// CVar builds a c-variable term.
	CVar = cond.CVar
)

// Comparison operators for Compare.
const (
	OpEq = cond.Eq
	OpNe = cond.Ne
	OpLt = cond.Lt
	OpLe = cond.Le
	OpGt = cond.Gt
	OpGe = cond.Ge
)

// Compare builds the atomic condition l op r.
var Compare = cond.Compare

// Condition constructors.
var (
	// TrueCond is the always-satisfied condition.
	TrueCond = cond.True
	// FalseCond is the contradictory condition.
	FalseCond = cond.False
	// And conjoins conditions.
	And = cond.And
	// Or disjoins conditions.
	Or = cond.Or
	// Not negates a condition.
	Not = cond.Not
)

// Parse reads a fauré-log program from its textual syntax; see
// internal/faurelog for the grammar.
func Parse(src string) (*Program, error) { return faurelog.Parse(src) }

// MustParse is Parse for statically-known sources; it panics on error.
func MustParse(src string) *Program { return faurelog.MustParse(src) }

// ParseDatabase reads a c-table database (var declarations plus
// conditioned facts) from its textual syntax.
func ParseDatabase(src string) (*Database, error) { return faurelog.ParseDatabase(src) }

// FormatDatabase renders a database in the syntax ParseDatabase reads
// (round-trippable).
func FormatDatabase(db *Database) string { return faurelog.FormatDatabase(db) }

// ParseUpdate reads an update in the +pred(args). / -pred(args).
// textual format.
func ParseUpdate(src string) (Update, error) { return rewrite.ParseUpdate(src) }

// NewDatabase returns an empty c-table database.
func NewDatabase() *Database { return ctable.NewDatabase() }

// NewTable returns an empty c-table with the given schema.
func NewTable(name string, attrs ...string) *Table { return ctable.NewTable(name, attrs...) }

// NewTuple builds a conditioned tuple (nil condition means true).
func NewTuple(values []Term, c *Formula) Tuple { return ctable.NewTuple(values, c) }

// BoolDomain is the {0, 1} domain of link-state variables.
func BoolDomain() Domain { return solver.BoolDomain() }

// EnumDomain builds a finite domain.
func EnumDomain(values ...Term) Domain { return solver.EnumDomain(values...) }

// NewSolver returns a condition solver over the given domains.
func NewSolver(doms Domains) *Solver { return solver.New(doms) }

// SimplifyCondition reduces a condition to a smaller solver-equivalent
// form (valid → true, unsat → false, implied conjuncts dropped) for
// display.
func SimplifyCondition(s *Solver, f *Formula) (*Formula, error) { return solver.Simplify(s, f) }

// AnswerStatus classifies an answer as certain / possible / impossible
// relative to the unknowns.
type AnswerStatus = ctable.AnswerStatus

// Answer statuses.
const (
	Impossible = ctable.Impossible
	PossibleA  = ctable.Possible
	CertainA   = ctable.Certain
)

// ClassifyAnswers groups a table's tuples by data part and classifies
// each combined condition: valid → certain, satisfiable → possible,
// contradictory → impossible.
func ClassifyAnswers(t *Table, s *Solver) ([]ctable.Answer, error) { return ctable.Classify(t, s) }

// LosslessMismatch reports one violation of the loss-lessness property
// found by CheckLossless.
type LosslessMismatch = lossless.Mismatch

// CheckLossless verifies the paper's §4 property for a model + query
// pair by brute-force world enumeration over the named finite-domain
// c-variables: the symbolic answer must match per-world evaluation in
// every world. An empty result means the property holds. Intended for
// validating new uncertain-network encodings on small instances.
func CheckLossless(prog *Program, db *Database, vars []string, limit int) ([]LosslessMismatch, error) {
	return lossless.Check(prog, db, vars, limit)
}

// Observability types: an evaluation, solver, or verifier can be
// wired to an Observer; Metrics is the recording implementation
// (counters, gauges, latency percentiles, hierarchical spans).
type (
	// Observer receives spans, counters, gauges and distributions from
	// the analysis layers. A nil observer disables observation at ~zero
	// cost.
	Observer = obs.Observer
	// Metrics is the concurrency-safe recording Observer; snapshot it
	// with Snapshot() and render with JSON()/Text().
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// ObsSpan is one hierarchical timing span.
	ObsSpan = obs.Span
)

// NewMetrics returns an empty recording observer.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Provenance types: a recorder captures, for every committed tuple,
// the rule and parent tuples of its first derivation; an explainer
// resolves the recorded edges against the result database into
// derivation trees. Recording is deterministic — two runs of the same
// evaluation record the same edges — and memory-bounded on demand
// (flight-recorder mode).
type (
	// ProvRecorder accumulates provenance edges during evaluation.
	ProvRecorder = prov.Recorder
	// ProvStats is a snapshot of a recorder's counters.
	ProvStats = prov.Stats
	// ProvEdge is one recorded derivation edge.
	ProvEdge = prov.Edge
	// ProvTree is a derivation tree produced by a ProvExplainer.
	ProvTree = prov.Tree
	// ProvExplainer walks recorded provenance into derivation trees.
	ProvExplainer = prov.Explainer
)

// NewProvenance returns an empty provenance recorder. capacity <= 0
// keeps every edge; capacity N > 0 bounds memory to the N most recent
// edges (flight-recorder mode).
func NewProvenance(capacity int) *ProvRecorder { return prov.NewRecorder(capacity) }

// WithProvenance returns a copy of opts that records every commit's
// derivation edge into r:
//
//	rec := faure.NewProvenance(0)
//	res, _ := faure.Eval(prog, db, faure.WithProvenance(faure.Options{}, rec))
//	x := faure.NewProvExplainer(rec, res.DB)
//	fmt.Print(x.ExplainAll("reach")[0])
func WithProvenance(opts Options, r *ProvRecorder) Options {
	opts.Prov = r
	return opts
}

// NewProvExplainer resolves a recorder's edges against the database
// the evaluation produced.
func NewProvExplainer(rec *ProvRecorder, db *Database) *ProvExplainer {
	return prov.NewExplainer(rec, db)
}

// WithObserver returns a copy of opts wired to o, so an evaluation
// reports its spans (eval → iteration → rule), per-rule derivation
// counts and the SQL-vs-solver time split:
//
//	m := faure.NewMetrics()
//	res, _ := faure.Eval(prog, db, faure.WithObserver(faure.Options{}, m))
//	fmt.Print(m.Snapshot().Text())
func WithObserver(opts Options, o Observer) Options {
	opts.Observer = o
	return opts
}

// ServeDebug starts the pprof/expvar/metrics debug endpoint (the
// -debug-addr flag of the CLI tools); reg may be nil.
func ServeDebug(addr string, reg *Metrics) (*obs.DebugServer, error) {
	return obs.ServeDebug(addr, reg)
}

// Resource-governance types: evaluations, verifications and the SQL
// backend accept an opt-in Budget (wall-clock deadline, solver-step
// cap, derived-tuple cap, condition-size cap) plus a context for
// cancellation. Exceeding a budget is not an error path — Eval and
// EvalSQL return the partial result with its Truncated field set, and
// the Verifier degrades to Unknown with the exhausted budget named in
// the Report. With no budget set, behaviour is unchanged (budgets are
// decision-preserving by construction: a nil tracker disables every
// check).
type (
	// Budget is the set of resource limits; zero fields are unlimited.
	Budget = budget.Limits
	// BudgetTracker enforces one Budget across all the layers that
	// share it; build one with NewBudget. A nil tracker is unlimited.
	BudgetTracker = budget.B
	// BudgetExceeded reports which budget tripped, its limit and where
	// in the computation it was exhausted (e.g. "stratum 3 round 2").
	BudgetExceeded = budget.Exceeded
)

// Budget kinds, reported in BudgetExceeded.Kind.
const (
	BudgetCanceled    = budget.Canceled
	BudgetDeadline    = budget.Deadline
	BudgetSolverSteps = budget.SolverSteps
	BudgetTuples      = budget.Tuples
	BudgetCondSize    = budget.CondSize
)

// NewBudget builds a shared tracker for one run: ctx supplies
// cancellation (nil means background), lim the limits. Hand the same
// tracker to every layer of one analysis — e.g. Options.Budget and
// Verifier.Budget — so the limits bound the whole run, not each layer
// separately.
func NewBudget(ctx context.Context, lim Budget) *BudgetTracker { return budget.New(ctx, lim) }

// AsBudgetExceeded extracts the budget trip from an error chain, if
// the error is one.
func AsBudgetExceeded(err error) (*BudgetExceeded, bool) { return budget.As(err) }

// WithBudget returns a copy of opts governed by the tracker.
func WithBudget(opts Options, b *BudgetTracker) Options {
	opts.Budget = b
	return opts
}

// WithContext returns a copy of opts whose evaluation stops (with a
// Truncated result) when ctx is cancelled or its deadline passes.
func WithContext(opts Options, ctx context.Context) Options {
	opts.Context = ctx
	return opts
}

// WithTimeout is shorthand for a wall-clock-only budget.
func WithTimeout(opts Options, d time.Duration) Options {
	return WithBudget(opts, NewBudget(nil, Budget{Timeout: d}))
}

// Eval runs a fauré-log program over a database.
func Eval(prog *Program, db *Database, opts Options) (res *Result, err error) {
	defer guard.Recover("faure.Eval", &err)
	return faurelog.Eval(prog, db, opts)
}

// EvalQuery evaluates and returns one derived table.
func EvalQuery(prog *Program, db *Database, pred string, opts Options) (tbl *Table, res *Result, err error) {
	defer guard.Recover("faure.EvalQuery", &err)
	return faurelog.EvalQuery(prog, db, pred, opts)
}

// EvalIncrement extends a previous evaluation with new EDB facts,
// re-deriving only what they enable (positive programs only); the
// incremental-maintenance capability the paper's related work
// contrasts fauré with.
func EvalIncrement(prog *Program, prev *Database, added map[string][]Tuple, opts Options) (res *Result, err error) {
	defer guard.Recover("faure.EvalIncrement", &err)
	return faurelog.EvalIncrement(prog, prev, added, opts)
}

// SQLOptions tunes the SQL backend's executor.
type SQLOptions = minisql.Options

// SQLStats is the SQL backend's phase breakdown.
type SQLStats = minisql.Stats

// CompileSQL rewrites a fauré-log program into the mini-SQL dialect —
// the paper's §6 implementation strategy (fauré-log executed by SQL
// rewriting plus a solver pass). The returned script text parses back
// with the same package and can be inspected or executed.
func CompileSQL(prog *Program, db *Database) (script string, err error) {
	defer guard.Recover("faure.CompileSQL", &err)
	s, err := minisql.Compile(prog, db)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}

// EvalSQL runs a fauré-log program through the SQL backend (compile →
// render → parse → execute); it agrees with Eval on the full language
// (negation compiles to NOTIN "not derivable" expressions).
func EvalSQL(prog *Program, db *Database, opts SQLOptions) (db2 *Database, stats *SQLStats, err error) {
	defer guard.Recover("faure.EvalSQL", &err)
	return minisql.EvalSQL(prog, db, opts)
}

// PanicError is the error the façade entry points and the Verifier
// return when an internal invariant fails: the panic is recovered at
// the API boundary, wrapped with its location and stack, and surfaced
// as an ordinary error instead of crashing the caller.
type PanicError = guard.PanicError

// Relational algebra over c-tables (the paper's §3 baseline; see
// internal/ctable): Sigma/Pi/Bowtie-style operators whose results stay
// loss-less.
var (
	// SelectRows is the c-table selection σ.
	SelectRows = ctable.Select
	// ProjectCols is the c-table projection π.
	ProjectCols = ctable.Project
	// JoinTables is the c-table join ⋈ (condition-concatenating).
	JoinTables = ctable.Join
	// UnionTables is the c-table union.
	UnionTables = ctable.Union
	// RenameTable renames a c-table and its attributes.
	RenameTable = ctable.Rename
	// Column / ConstantOperand build selection operands.
	Column          = ctable.Column
	ConstantOperand = ctable.Constant
)

// Selection is a σ predicate for SelectRows.
type Selection = ctable.Selection

// ParseCondition parses a condition expression ($x = 1 && $y != Mkt)
// into a Formula; only c-variables and constants may appear.
func ParseCondition(src string) (*Formula, error) { return faurelog.ParseCondition(src) }

// NewConstraint wraps a program as a named constraint; the program
// must define the 0-ary predicate panic.
func NewConstraint(name string, prog *Program) (Constraint, error) {
	return containment.NewConstraint(name, prog)
}

// MustConstraint parses and wraps a constraint, panicking on error.
func MustConstraint(name, src string) Constraint { return containment.MustConstraint(name, src) }

// Subsumes runs the category (i) containment test directly. Targets
// with intermediate predicates are flattened (inlined) first.
func Subsumes(target Constraint, known []Constraint, doms Domains, schema *Schema) (bool, error) {
	res, err := containment.Subsumes(target, known, doms, schema)
	return res.Contained, err
}

// FlattenConstraint inlines a constraint's non-recursive intermediate
// predicates into its panic rules (the form the containment tests
// process).
func FlattenConstraint(prog *Program) (*Program, error) { return containment.Flatten(prog) }

// ApplyUpdate materialises an update on a copy of the database.
func ApplyUpdate(db *Database, u Update) (*Database, error) { return rewrite.Apply(db, u) }

// RewriteConstraint builds the Listing 4 rewritten constraint C' such
// that C' on the pre-update state ≡ C on the post-update state.
func RewriteConstraint(c *Program, u Update) (*Program, error) {
	return rewrite.RewriteConstraint(c, u)
}

// Figure1 returns the paper's fast-reroute topology (§4).
func Figure1() *Topology { return network.Figure1() }

// ParseTopology reads a fast-reroute topology description
// (protect/static lines); FormatTopology is the inverse.
func ParseTopology(src string) (*Topology, error) { return network.ParseTopology(src) }

// FormatTopology renders a topology in the ParseTopology format.
func FormatTopology(t *Topology) string { return network.FormatTopology(t) }

// ChainTopology builds an n-node protected chain with per-hop detours
// (acyclic condition-growth stress shape).
func ChainTopology(n int) *Topology { return network.ChainTopology(n) }

// RingTopology builds an n-node protected ring with per-hop detours
// (cyclic condition-growth stress shape).
func RingTopology(n int) *Topology { return network.RingTopology(n) }

// ReachabilityProgram returns Listing 2's recursive q4–q5.
func ReachabilityProgram() *Program { return network.ReachabilityProgram() }

// TwoLinkFailureProgram returns Listing 2's q6: reachability under the
// failure of the two named links, over a computed reach relation.
func TwoLinkFailureProgram(x, y, z string) *Program { return network.TwoLinkFailureProgram(x, y, z) }

// PinnedPairFailureProgram returns Listing 2's q7: the pinned
// source/destination pair nested over q6's result.
func PinnedPairFailureProgram(src, dst int, y string) *Program {
	return network.PinnedPairFailureProgram(src, dst, y)
}

// AtLeastOneFailureProgram returns Listing 2's q8: reachability from
// the source when at least one of the named links has failed.
func AtLeastOneFailureProgram(src int, y, z string) *Program {
	return network.AtLeastOneFailureProgram(src, y, z)
}

// GenerateRIB builds the synthetic Table 4 workload.
func GenerateRIB(cfg RIBConfig) *RIB { return rib.Generate(cfg) }

// ParseRIB reads the textual RIB format written by RIB.Write.
func ParseRIB(r io.Reader) (*RIB, error) { return rib.Parse(r) }

// JoinTopoConfig parameterises the fat-tree join-stress topology.
type JoinTopoConfig = network.JoinTopoConfig

// JoinTopology compiles the fat-tree join-stress state (conditioned
// links, c-variable uplinks, failure sample) into a database.
func JoinTopology(cfg JoinTopoConfig) *Database { return network.JoinTopology(cfg) }

// JoinStressProgram returns the multi-way join query over the
// fat-tree state, written worst-first so the cost-guided planner has
// something to improve.
func JoinStressProgram() *Program { return network.JoinStressProgram() }

// Enterprise scenario accessors (§5).
var (
	// EnterpriseDomains returns the §5 c-variable domains.
	EnterpriseDomains = network.EnterpriseDomains
	// EnterpriseSchema types the §5 relations' attributes.
	EnterpriseSchema = network.EnterpriseSchema
	// EnterpriseState builds the baseline §5 state.
	EnterpriseState = network.EnterpriseState
	// T1 is "Mkt→CS traffic must pass a firewall".
	T1 = network.T1
	// T2 is "R&D traffic must pass a load balancer".
	T2 = network.T2
	// Clb is the TE team's policy.
	Clb = network.Clb
	// Cs is the security team's policy.
	Cs = network.Cs
	// ListingFourUpdate is the §5 update.
	ListingFourUpdate = network.ListingFourUpdate
)

// Resident verification service (faure-serve).
type (
	// Service is the resident verification service: an MVCC-style
	// snapshot store of evaluated generations, served concurrently,
	// with a single writer draining updates through the rewrite chain
	// and the incremental evaluator, journaled to a write-ahead log.
	Service = serve.Server
	// ServiceConfig assembles a Service.
	ServiceConfig = serve.Config
	// ServiceGeneration is one immutable snapshot of the service state.
	ServiceGeneration = serve.Generation
)

// Serve builds the resident service: the program is evaluated once to
// the warm generation, the write-ahead log (if configured) is replayed,
// and the update writer starts. Mount Service.Handler on an HTTP
// server and Shutdown on exit.
func Serve(cfg ServiceConfig) (*Service, error) { return serve.New(cfg) }
