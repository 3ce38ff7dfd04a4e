package main

import "fmt"

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_rps", "req/s"},
}

// perLayer are the metrics a traced run reports. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"rib.generate_s", "s"},
	{"rib.forwarding_db_s", "s"},
	{"network.jointopo_s", "s"},
	{"faurelog.eval_s.q4-q5", "s"},
	{"faurelog.eval_s.q6", "s"},
	{"faurelog.eval_s.q7", "s"},
	{"faurelog.eval_s.q8", "s"},
	{"faurelog.eval_s.join", "s"},
	{"faurelog.engine_s", "s"},
	{"faurelog.sql_s", "s"},
	{"faurelog.derived", "count"},
	{"faurelog.pruned", "count"},
	{"faurelog.absorbed", "count"},
	{"faurelog.iterations", "count"},
	{"faurelog.tuples", "count"},
	{"faurelog.waste_ratio", "ratio"},
	{"faurelog.derived_per_s", "1/s"},
	{"faurelog.load_export_s", "s"},
	{"faurelog.load_export_s.q4-q5", "s"},
	{"faurelog.load_export_s.q6", "s"},
	{"faurelog.load_export_s.q7", "s"},
	{"faurelog.load_export_s.q8", "s"},
	{"faurelog.plans_reordered", "count"},
	{"faurelog.speedup_2w", "ratio"},
	{"faurelog.eval_increment_ms", "ms"},
	{"faurelog.eval_full_ms", "ms"},
	{"faurelog.absorb_probes", "count"},
	{"faurelog.format_ms", "ms"},
	{"relstore.probes", "count"},
	{"relstore.multi_probes", "count"},
	{"relstore.scans", "count"},
	{"relstore.fallback_scans", "count"},
	{"relstore.intersections", "count"},
	{"relstore.probe_hit_ratio", "ratio"},
	{"solver.time_s", "s"},
	{"solver.sat_calls", "count"},
	{"solver.cache_hits", "count"},
	{"solver.cert_hits", "count"},
	{"solver.fastpath_hits", "count"},
	{"solver.searches", "count"},
	{"solver.hit_ratio", "ratio"},
	{"cond.intern_hits", "count"},
	{"cond.intern_misses", "count"},
	{"cond.intern_live", "count"},
	{"cond.intern_hit_ratio", "ratio"},
	{"gc.alloc_mb", "MB"},
	{"gc.alloc_objects", "count"},
	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"gc.pause_ms", "ms"},
	{"verify.ladder_ms.direct", "ms"},
	{"verify.ladder_ms.category-i", "ms"},
	{"verify.ladder_ms.category-ii", "ms"},
	{"verify.load_export_ms", "ms"},
	{"containment.subsumes_ms", "ms"},
	{"rewrite.apply_ms", "ms"},
	{"serve.boot_s", "s"},
	{"serve.apply_ms.insert", "ms"},
	{"serve.apply_ms.delete", "ms"},
	{"serve.writer_overhead_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.rejects", "count"},
	{"serve.rollbacks", "count"},
	{"verify_p50_ms", "ms"},
	{"verify_p99_ms", "ms"},
	{"verify_samples", "count"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_samples", "count"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"update_samples", "count"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render keeps exactly the metrics of defs from vals. A missing
// end-to-end metric is an error; a missing per-layer metric reads 0.
func render(defs []metricDef, vals map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
