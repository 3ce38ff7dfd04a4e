package main

import (
	"fmt"
	"time"

	"faure"
)

// batch is a workload that builds an input database (its set-up) and
// then evaluates a fixed chain of fauré-log queries, each over the
// set-up database or over an earlier query's result.
type batch struct {
	setup   func(seed int64, tr *tracer) *faure.Database
	queries []batchQuery
	// twoWorkers makes the traced run also time the chain at 2 workers.
	twoWorkers bool
}

// evalSpan prefixes the name of the span around each query's
// faure.Eval call.
const evalSpan = "faurelog.eval."

type batchQuery struct {
	name  string
	prog  func() *faure.Program
	input string // "" reads the set-up database, otherwise the named earlier query's result
	table string // the answer relation checked against the expected results
}

// table4 is the paper's Table 4 chain over a synthetic RIB of the given
// size with the default pool of 10 link-state variables: q4-q5, then
// q6 and q7 over it, and q8 over q4-q5's result.
func table4(prefixes int) *batch {
	return &batch{
		setup: func(seed int64, tr *tracer) *faure.Database {
			var r *faure.RIB
			var db *faure.Database
			tr.call("rib.generate", func() {
				r = faure.GenerateRIB(faure.RIBConfig{Prefixes: prefixes, PoolSize: 10, Seed: seed})
			})
			tr.call("rib.forwarding_db", func() { db = r.ForwardingDatabase() })
			return db
		},
		queries: []batchQuery{
			{name: "q4-q5", prog: faure.ReachabilityProgram, table: "reach"},
			{name: "q6", prog: func() *faure.Program { return faure.TwoLinkFailureProgram("x", "y", "z") }, input: "q4-q5", table: "t1"},
			{name: "q7", prog: func() *faure.Program { return faure.PinnedPairFailureProgram(2, 5, "y") }, input: "q6", table: "t2"},
			{name: "q8", prog: func() *faure.Program { return faure.AtLeastOneFailureProgram(1, "y", "z") }, input: "q4-q5", table: "t3"},
		},
	}
}

// joinStress is the fat-tree join-stress query over about the given
// number of hosts (fan-out 3, so hosts/9 pods).
func joinStress(hosts int) *batch {
	const fanout = 3
	pods := max(hosts/(fanout*fanout), 1)
	return &batch{
		setup: func(seed int64, tr *tracer) *faure.Database {
			var db *faure.Database
			tr.call("network.jointopo", func() {
				db = faure.JoinTopology(faure.JoinTopoConfig{Pods: pods, Fanout: fanout, Seed: seed})
			})
			return db
		},
		queries:    []batchQuery{{name: "join", prog: faure.JoinStressProgram, table: "pair"}},
		twoWorkers: true,
	}
}

// queryReport is one query of a batch child run: its time measured
// around the faure.Eval call, its engine statistics, and its output.
type queryReport struct {
	Name   string      `json:"name"`
	EvalS  float64     `json:"eval_s"`
	Stats  faure.Stats `json:"stats"`
	Tuples int         `json:"tuples"`
	Digest string      `json:"digest"`
}

// batchReport is what a batch child sends back to the parent process.
type batchReport struct {
	SetupS  float64       `json:"setup_s"`
	Queries []queryReport `json:"queries"`
	// Traced runs only.
	Spans []span `json:"spans,omitempty"`
	Usage usage  `json:"usage"`
}

// wallS is the sum of the query call times.
func (r batchReport) wallS() float64 {
	total := 0.0
	for _, q := range r.Queries {
		total += q.EvalS
	}
	return total
}

// setupBatch runs only the set-up and returns its duration.
func setupBatch(b *batch, seed int64) float64 {
	start := time.Now()
	b.setup(seed, newTracer(false))
	return time.Since(start).Seconds()
}

// runBatch builds the inputs and evaluates the query chain at the given
// worker count. Each answer is counted and digested right after its
// query, outside the timed call, and each result is kept only until
// the last query that reads it.
func runBatch(b *batch, seed int64, workers int, traced bool) (batchReport, error) {
	lastUse := map[string]int{}
	for i, q := range b.queries {
		if q.input != "" {
			lastUse[q.input] = i
		}
	}
	tr := newTracer(traced)
	var rep batchReport
	start := time.Now()
	db := b.setup(seed, tr)
	rep.SetupS = time.Since(start).Seconds()
	results := map[string]*faure.Database{}
	for i, q := range b.queries {
		in := db
		if q.input != "" {
			in = results[q.input]
		}
		prog := q.prog()
		var res *faure.Result
		var err error
		d := tr.call(evalSpan+q.name, func() {
			res, err = faure.Eval(prog, in, faure.Options{Workers: workers})
		})
		if err != nil {
			return rep, fmt.Errorf("%s: %w", q.name, err)
		}
		if res.Truncated != nil {
			return rep, fmt.Errorf("%s: truncated: %v", q.name, res.Truncated)
		}
		qr := queryReport{Name: q.name, EvalS: d.Seconds(), Stats: res.Stats}
		if t := res.DB.Table(q.table); t != nil {
			qr.Tuples = t.Len()
			qr.Digest = tableDigest(t)
		}
		rep.Queries = append(rep.Queries, qr)
		if _, read := lastUse[q.name]; read {
			results[q.name] = res.DB
		}
		for name, last := range lastUse {
			if last == i {
				delete(results, name)
			}
		}
	}
	rep.Spans = tr.spans
	rep.Usage = tr.rt
	return rep, nil
}

// tableDigest is the order-insensitive digest of one relation's
// FormatDatabase dump.
func tableDigest(t *faure.Table) string {
	one := faure.NewDatabase()
	one.AddTable(t)
	return sortedLinesDigest(faure.FormatDatabase(one))
}

// batchLayers turns a traced child's report into the per-layer metrics
// of the batch layers: set-up spans, per-query call times, the engine's
// own statistics, and the load/export gap between the two.
func batchLayers(rep batchReport, out map[string]float64) {
	var total faure.Stats
	evalS, tuples := 0.0, 0
	for _, q := range rep.Queries {
		engine := (q.Stats.SQLTime + q.Stats.SolverTime).Seconds()
		out["faurelog.eval_s."+q.Name] = q.EvalS
		if q.Name != "join" {
			out["faurelog.load_export_s."+q.Name] = q.EvalS - engine
		}
		total.Add(q.Stats)
		evalS += q.EvalS
		tuples += q.Tuples
	}
	self := selfSeconds(rep.Spans)
	for i, s := range rep.Spans {
		switch s.Name {
		case "rib.generate", "rib.forwarding_db", "network.jointopo":
			out[s.Name+"_s"] += self[i]
		}
	}
	engine := (total.SQLTime + total.SolverTime).Seconds()
	out["faurelog.engine_s"] = engine
	out["faurelog.sql_s"] = total.SQLTime.Seconds()
	out["faurelog.load_export_s"] = evalS - engine
	out["faurelog.derived"] = float64(total.Derived)
	out["faurelog.pruned"] = float64(total.Pruned)
	out["faurelog.absorbed"] = float64(total.Absorbed)
	out["faurelog.iterations"] = float64(total.Iterations)
	out["faurelog.tuples"] = float64(tuples)
	dropped := float64(total.Pruned + total.Absorbed)
	out["faurelog.waste_ratio"] = ratio(dropped, dropped+float64(total.Derived))
	out["faurelog.derived_per_s"] = ratio(float64(total.Derived), evalS)
	out["faurelog.plans_reordered"] = float64(total.PlansReordered)
	out["faurelog.absorb_probes"] = float64(total.AbsorbProbes)
	out["relstore.probes"] = float64(total.Probes)
	out["relstore.multi_probes"] = float64(total.MultiProbes)
	out["relstore.scans"] = float64(total.Scans)
	out["relstore.fallback_scans"] = float64(total.FallbackScans)
	out["relstore.intersections"] = float64(total.Intersections)
	out["relstore.probe_hit_ratio"] = total.ProbeHitRatio()
	hits := float64(total.SolverCacheHits + total.SolverCertHits + total.SolverFastPathHits)
	out["solver.time_s"] = total.SolverTime.Seconds()
	out["solver.sat_calls"] = float64(total.SatCalls)
	out["solver.cache_hits"] = float64(total.SolverCacheHits)
	out["solver.cert_hits"] = float64(total.SolverCertHits)
	out["solver.fastpath_hits"] = float64(total.SolverFastPathHits)
	out["solver.searches"] = float64(total.SolverSearches)
	out["solver.hit_ratio"] = ratio(hits, hits+float64(total.SolverSearches))
	rep.Usage.layers(out)
}
