package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"faure"
)

func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("100, 200,500")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 200 || sizes[2] != 500 {
		t.Errorf("parseSizes = %v", sizes)
	}
	for _, bad := range []string{"", "abc", "0", "-5", "100,,200"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should fail", bad)
		}
	}
}

// TestRunJSONReport runs a small sweep end to end and checks the
// machine-readable report against the golden shape: workload counts
// are deterministic given a fixed seed, so everything except the time
// fields is compared exactly.
func TestRunJSONReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(&buf, []int{50}, 1, 10, false, true, out, faure.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 4") {
		t.Errorf("table output missing header:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Errorf("missing report confirmation:\n%s", buf.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	// Normalise the timing and intern fields, then compare the rest
	// exactly. Intern counters depend on process history (the global
	// intern table persists across in-process runs, so a warm table
	// shifts hits vs misses), like timing they are checked for sanity
	// rather than exact values.
	if report.Intern.Live <= 0 || report.Intern.Misses <= 0 {
		t.Errorf("intern snapshot not populated: %+v", report.Intern)
	}
	for i := range report.Workloads {
		w := &report.Workloads[i]
		if w.WallMS < ms(w.SQLTime) || w.WallMS < ms(w.SolverTime) {
			t.Errorf("%s: wall %.3fms below phase times (sql %v, solver %v)",
				w.Name, w.WallMS, w.SQLTime, w.SolverTime)
		}
		if w.InternHits+w.InternMisses <= 0 || w.InternLive <= 0 {
			t.Errorf("%s: intern counters not populated: %+v", w.Name, w)
		}
		if w.Name == "join" && (w.WallNoPlanMS <= 0 || w.PlanSpeedup <= 0) {
			t.Errorf("join workload missing the written-order baseline columns: %+v", w)
		}
		w.WallMS, w.SQLTime, w.SolverTime = 0, 0, 0
		w.InternHits, w.InternMisses, w.InternLive = 0, 0, 0
		w.WallNoPlanMS, w.PlanSpeedup = 0, 0
	}
	golden := benchReport{
		Benchmark: "table4", Seed: 1, Pool: 10,
		// The incremental-solver counters are exact on purpose: every
		// workload must show zero search-reaching decisions (certificates
		// and the fd fast path answer everything at this scale), and the
		// set test must decide every absorption probe
		// (AbsorbSetHits == AbsorbProbes).
		Workloads: []benchWorkload{
			{Name: "q4-q5", Prefixes: 50, Tuples: 1815, Stats: faure.Stats{Iterations: 6, Derived: 1815, Pruned: 520, AbsorbProbes: 228, AbsorbSetHits: 228, SatCalls: 2335,
				SolverCacheHits: 2017, SolverFastPathHits: 318,
				Probes: 1815, Scans: 2, PlansPlanned: 7, PlansReordered: 1}},
			{Name: "q6", Prefixes: 50, Tuples: 1815, Stats: faure.Stats{Iterations: 1, Derived: 1815, AbsorbProbes: 228, AbsorbSetHits: 228, SatCalls: 1815,
				SolverCacheHits: 1629, SolverFastPathHits: 186,
				Scans: 1}},
			{Name: "q7", Prefixes: 50, Tuples: 17, Stats: faure.Stats{Iterations: 1, Derived: 17, Pruned: 2, AbsorbProbes: 3, AbsorbSetHits: 3, SatCalls: 19,
				SolverCacheHits: 2, SolverFastPathHits: 17,
				Probes: 1}},
			{Name: "q8", Prefixes: 50, Tuples: 293, Stats: faure.Stats{Iterations: 1, Derived: 293, AbsorbProbes: 65, AbsorbSetHits: 65, SatCalls: 293,
				SolverCacheHits: 200, SolverFastPathHits: 93,
				Probes: 1}},
			{Name: "join", Prefixes: 50, Tuples: 1311, Stats: faure.Stats{Iterations: 3, Derived: 1784, Pruned: 2649, Absorbed: 1893, AbsorbProbes: 3054, AbsorbSetHits: 3054, SatCalls: 5717,
				SolverCacheHits: 5335, SolverCertHits: 2, SolverFastPathHits: 380,
				Probes: 495, MultiProbes: 95, Scans: 11, Intersections: 26,
				PlansPlanned: 2, PlansReordered: 2}},
		},
	}
	if len(report.Workloads) != len(golden.Workloads) {
		t.Fatalf("got %d workloads, want %d:\n%s", len(report.Workloads), len(golden.Workloads), raw)
	}
	// The exact counts depend only on the (seeded) workload, so a
	// mismatch means evaluation behaviour changed — compare verbosely.
	for i, got := range report.Workloads {
		if want := golden.Workloads[i]; got != want {
			t.Errorf("workload %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// The derived ratios are written next to the counts they follow
	// from: q4-q5 probed 1815 of 1817 store accesses, join 590 of 601.
	var ratios struct {
		Workloads []struct {
			ProbeHitRatio float64 `json:"probe_hit_ratio"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &ratios); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1815.0 / 1817.0, 0, 1, 1, 590.0 / 601.0} {
		if got := ratios.Workloads[i].ProbeHitRatio; got != want {
			t.Errorf("workload %d: probe_hit_ratio %v, want %v", i, got, want)
		}
	}
}

// TestReportSchema pins the keys of a JSON workload object, as the
// table-driven writer must keep them: the Table-4 and join workloads
// of a plain sweep and a -prov -1 sweep. CI's regression gate compares
// against reports of earlier commits, so the set may only change
// deliberately.
func TestReportSchema(t *testing.T) {
	base := []string{"absorb_probes", "absorb_set_hits", "absorbed", "derived", "intern_hits", "intern_live", "intern_misses",
		"iterations", "memo_evictions", "name", "plans_planned", "plans_reordered", "prefixes",
		"probe_hit_ratio", "pruned", "sat_calls", "sat_calls_per_derived", "solver_cache_hits",
		"solver_cert_hits", "solver_fastpath_hits", "solver_ms", "solver_searches", "sql_ms",
		"store_fallback_scans", "store_intersections", "store_multi_probes", "store_probes",
		"store_scans", "tuples", "wall_ms"}
	join := []string{"plan_speedup", "wall_noplan_ms"}
	for _, tc := range []struct {
		name  string
		opts  faure.Options
		extra []string
	}{
		{"plain", faure.Options{}, nil},
		{"prov", faure.WithProvenance(faure.Options{}, faure.NewProvenance(0)), []string{"prov_edges", "prov_parents"}},
	} {
		out := filepath.Join(t.TempDir(), tc.name+".json")
		var buf bytes.Buffer
		if err := run(&buf, []int{30}, 1, 10, false, true, out, tc.opts); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Workloads []map[string]any `json:"workloads"`
		}
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatal(err)
		}
		for _, wl := range report.Workloads {
			want := append(append([]string{}, base...), tc.extra...)
			switch wl["name"] {
			case "q4-q5":
			case "join":
				want = append(want, join...)
			default:
				continue
			}
			sort.Strings(want)
			got := make([]string, 0, len(wl))
			for k := range wl {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s %v keys:\n got %v\nwant %v", tc.name, wl["name"], got, want)
			}
		}
	}
}

// TestReadEarlierReport reads a workload as faure-bench wrote it before
// the JSON was driven by the counter table: CI's regression gate reads
// the base commit's report with the head's reader.
func TestReadEarlierReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	earlier := `{"benchmark": "table4", "seed": 1, "pool": 10, "workers": 1, "workloads": [{
		"name": "join", "prefixes": 30, "wall_ms": 44.806, "sql_ms": 31.859, "solver_ms": 12.947,
		"iterations": 3, "derived": 1034, "pruned": 1413, "absorbed": 924, "absorb_probes": 1629,
		"sat_calls": 4709, "solver_cache_hits": 3981, "solver_cert_hits": 11, "solver_fastpath_hits": 717,
		"solver_searches": 0, "memo_evictions": 0, "sat_calls_per_derived": 0, "tuples": 753,
		"intern_hits": 10294, "intern_misses": 1157, "intern_live": 2293, "store_probes": 239,
		"store_multi_probes": 57, "store_scans": 11, "store_fallback_scans": 0, "store_intersections": 11,
		"probe_hit_ratio": 0.9641693811074918, "plans_planned": 2, "plans_reordered": 2,
		"wall_noplan_ms": 32.611, "plan_speedup": 0.7278371395531092}]}`
	if err := os.WriteFile(path, []byte(earlier), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	want := benchWorkload{Name: "join", Prefixes: 30, WallMS: 44.806, Tuples: 753,
		WallNoPlanMS: 32.611, PlanSpeedup: 0.7278371395531092,
		Stats: faure.Stats{SQLTime: 31859 * time.Microsecond, SolverTime: 12947 * time.Microsecond,
			Iterations: 3, Derived: 1034, Pruned: 1413, Absorbed: 924, AbsorbProbes: 1629, SatCalls: 4709,
			SolverCacheHits: 3981, SolverCertHits: 11, SolverFastPathHits: 717,
			InternHits: 10294, InternMisses: 1157, InternLive: 2293,
			Probes: 239, MultiProbes: 57, Scans: 11, Intersections: 11, PlansPlanned: 2, PlansReordered: 2}}
	if len(report.Workloads) != 1 || report.Workloads[0] != want {
		t.Fatalf("read %+v\nwant %+v", report.Workloads, want)
	}
	// Written back, the workload keeps every value it was read with.
	again := filepath.Join(t.TempDir(), "again.json")
	if err := writeReport(again, report); err != nil {
		t.Fatal(err)
	}
	if back, err := readReport(again); err != nil || back.Workloads[0] != want {
		t.Fatalf("round trip: %+v (%v)", back.Workloads, err)
	}
}

// TestRunJSONDeterministic checks two runs at the same seed produce
// identical reports once timing is stripped.
func TestRunJSONDeterministic(t *testing.T) {
	read := func(path string) benchReport {
		t.Helper()
		var buf bytes.Buffer
		if err := run(&buf, []int{30}, 7, 10, false, true, path, faure.Options{}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r benchReport
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		for i := range r.Workloads {
			w := &r.Workloads[i]
			w.WallMS, w.SQLTime, w.SolverTime = 0, 0, 0
			w.WallNoPlanMS, w.PlanSpeedup = 0, 0
			// Intern counters vary with process history (a warm global
			// intern table converts misses into hits); the determinism
			// contract covers the evaluation counters, not them.
			w.InternHits, w.InternMisses, w.InternLive = 0, 0, 0
		}
		return r
	}
	dir := t.TempDir()
	a := read(filepath.Join(dir, "a.json"))
	b := read(filepath.Join(dir, "b.json"))
	if len(a.Workloads) != len(b.Workloads) {
		t.Fatalf("workload counts differ: %d vs %d", len(a.Workloads), len(b.Workloads))
	}
	for i := range a.Workloads {
		if a.Workloads[i] != b.Workloads[i] {
			t.Errorf("workload %d differs across runs:\n%+v\n%+v", i, a.Workloads[i], b.Workloads[i])
		}
	}
}

// TestRunProvReport checks the -prov path: wiring a recorder into the
// options populates the provenance counters of every workload, and the
// counters survive the JSON round trip.
func TestRunProvReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "prov.json")
	var buf bytes.Buffer
	rec := faure.NewProvenance(0)
	if err := run(&buf, []int{30}, 1, 10, false, true, out, faure.WithProvenance(faure.Options{}, rec)); err != nil {
		t.Fatal(err)
	}
	report, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range report.Workloads {
		if w.ProvEdges <= 0 {
			t.Errorf("%s: no provenance edges recorded: %+v", w.Name, w)
		}
		total += w.ProvEdges
	}
	if got := rec.Stats().Recorded; got != total {
		t.Errorf("recorder saw %d edges, workloads report %d", got, total)
	}
}

// TestCompareReports exercises the -baseline regression gate: matching
// by name and prefix count, the jitter floor, and the threshold.
func TestCompareReports(t *testing.T) {
	wl := func(name string, prefixes int, wall float64) benchWorkload {
		return benchWorkload{Name: name, Prefixes: prefixes, WallMS: wall}
	}
	base := benchReport{Workloads: []benchWorkload{
		wl("q4-q5", 100, 100), wl("q6", 100, 40), wl("tiny", 100, 5), wl("gone", 100, 80),
	}}
	head := benchReport{Workloads: []benchWorkload{
		wl("q4-q5", 100, 130), // +30% — regression at 25%
		wl("q6", 100, 49),     // +22.5% — within threshold
		wl("tiny", 100, 500),  // below the baseline floor — exempt
		wl("new", 100, 999),   // not in the baseline — skipped
	}}
	got := compareReports(base, head, 25, 20)
	if len(got) != 1 || !strings.Contains(got[0], "q4-q5") {
		t.Fatalf("compareReports = %v, want exactly the q4-q5 regression", got)
	}
	if !strings.Contains(got[0], "+30%") {
		t.Errorf("regression line should carry the percentage: %q", got[0])
	}
	if got := compareReports(base, head, 35, 20); len(got) != 0 {
		t.Errorf("at a 35%% threshold nothing should regress, got %v", got)
	}
}

// TestCheckBaseline runs the gate end to end: a report compared against
// itself passes; against a doctored faster baseline it fails non-nil.
func TestCheckBaseline(t *testing.T) {
	dir := t.TempDir()
	head := filepath.Join(dir, "head.json")
	var buf bytes.Buffer
	if err := run(&buf, []int{50}, 1, 10, false, true, head, faure.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(&buf, head, head, 25); err != nil {
		t.Errorf("self-comparison should pass: %v", err)
	}
	if !strings.Contains(buf.String(), "baseline check passed") {
		t.Errorf("missing pass confirmation:\n%s", buf.String())
	}
	report, err := readReport(head)
	if err != nil {
		t.Fatal(err)
	}
	// The gate exempts workloads under regressFloorMS, and on a fast
	// machine every workload of this small sweep can finish under it.
	// Lift the head's wall times above the floor, so the gate's verdict
	// does not depend on the machine's speed.
	for i := range report.Workloads {
		report.Workloads[i].WallMS = max(report.Workloads[i].WallMS, 10*regressFloorMS)
	}
	if err := writeReport(head, report); err != nil {
		t.Fatal(err)
	}
	// Doctor the baseline so every real workload appears to have been
	// much faster before, forcing the gate to trip.
	for i := range report.Workloads {
		report.Workloads[i].WallMS /= 10
		if report.Workloads[i].WallMS < regressFloorMS {
			report.Workloads[i].WallMS = regressFloorMS
		}
	}
	base := filepath.Join(dir, "base.json")
	if err := writeReport(base, report); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = checkBaseline(&buf, base, head, 25)
	if err == nil {
		t.Fatal("doctored baseline should fail the gate")
	}
	if !strings.Contains(buf.String(), "REGRESSION:") {
		t.Errorf("missing regression lines:\n%s", buf.String())
	}
}

// TestRunAblations smoke-tests the -ablate path.
func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations sweep in -short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, []int{30}, 1, 10, true, false, "", faure.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "no-absorb", "no-eager-prune", "no-index", "no-solver-cache"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
