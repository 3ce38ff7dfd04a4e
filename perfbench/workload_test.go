package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"faure"
)

// TestBatchSmoke runs each batch workload at a tiny size, traced and
// untraced, and checks that the answers agree and the spans cover the
// run.
func TestBatchSmoke(t *testing.T) {
	for name, b := range map[string]*batch{"table4": table4(40), "join-stress": joinStress(27)} {
		t.Run(name, func(t *testing.T) {
			plain, err := runBatch(b, 1, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runBatch(b, 1, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Queries) != len(b.queries) || len(plain.Spans) != 0 {
				t.Fatalf("untraced run: %d queries, %d spans", len(plain.Queries), len(plain.Spans))
			}
			for i, q := range plain.Queries {
				tq := traced.Queries[i]
				if q.Tuples == 0 || q.Tuples != tq.Tuples || q.Digest != tq.Digest {
					t.Errorf("%s: untraced %d tuples %s, traced at 2 workers %d tuples %s",
						q.Name, q.Tuples, q.Digest, tq.Tuples, tq.Digest)
				}
			}
			if cov := coverage(traced.Spans, traced.wallS()); math.Abs(cov-1) > maxCoverageGap {
				t.Errorf("coverage = %v", cov)
			}
			layers := map[string]float64{}
			batchLayers(traced, layers)
			if layers["faurelog.derived"] == 0 || layers["gc.alloc_mb"] <= 0 || layers["faurelog.engine_s"] <= 0 {
				t.Errorf("layer metrics not filled: %v", layers)
			}
			if _, err := render(perLayer, layers, false); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestServeSmoke drives one pass of a tiny mix against a real server
// and replays the layer calls.
func TestServeSmoke(t *testing.T) {
	m := newServeMix(20, 8)
	tr := newTracer(true)
	s, err := bootServer(m, 1, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	// The expected answers, computed without HTTP: every template is
	// decided at the level it is named for, and the query's count comes
	// from evaluating it directly.
	exp := serveExpect{Verify: map[string]verifyExpect{}}
	for name := range verifyTemplates {
		exp.Verify[name] = verifyExpect{Verdict: "holds", Level: name}
	}
	res, err := faure.Eval(faure.MustParse(hop2Src), s.svc.Current().DB, faure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exp.QueryTuples = res.DB.Table("hop2").Len()

	seqs := [][]request{m.sequence(3, 0), m.sequence(3, 1)}
	pass := drivePass(s.addr, seqs, exp, true)
	if pass.failed != 0 || pass.attempted != len(seqs[0])+len(seqs[1]) {
		t.Fatalf("pass: %d of %d failed", pass.failed, pass.attempted)
	}
	if got := s.svc.Applies(); got != uint64(pass.acked) || pass.acked == 0 {
		t.Errorf("server applied %d updates, %d acknowledged", got, pass.acked)
	}
	layers := map[string]float64{}
	p50, err := replay(m, s.svc, tr, layers)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"verify.ladder_ms.direct", "verify.ladder_ms.category-ii", "containment.subsumes_ms",
		"rewrite.apply_ms", "faurelog.eval_increment_ms", "faurelog.eval_full_ms", "serve.apply_ms.delete"} {
		if layers[name] <= 0 {
			t.Errorf("%s = %v", name, layers[name])
		}
	}
	if p50 <= 0 {
		t.Errorf("ladder p50 = %v", p50)
	}
	if s.svc.Rollbacks() != 0 {
		t.Errorf("%d rollbacks", s.svc.Rollbacks())
	}
}

func TestSequenceIsSeededAndMixed(t *testing.T) {
	m := newServeMix(200, 260)
	a, b := m.sequence(5, 0), m.sequence(5, 0)
	counts := map[string]int{}
	for i := range a {
		if a[i].kind != b[i].kind || string(a[i].body) != string(b[i].body) {
			t.Fatalf("request %d differs between two draws of one seed", i)
		}
		counts[a[i].class]++
		counts[a[i].kind]++
	}
	if counts["verify"] != 260 || counts["query"] != 55 || counts["update"] != 55 {
		t.Errorf("mix = %v", counts)
	}
	for level := range verifyTemplates {
		if counts[level] < 86 || counts[level] > 88 {
			t.Errorf("%d verifies at %s, want a third of 260", counts[level], level)
		}
	}
	other := m.sequence(6, 0)
	same := true
	for i := range a {
		same = same && a[i].kind == other[i].kind
	}
	if same {
		t.Error("seeds 5 and 6 give the same order")
	}
}

// TestBenchmarkFileMatches checks BENCHMARK.json against the workloads
// and metric tables here.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, want %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, want %v", names, want)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%d metrics in the file, %d here", len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("metric %d: file %s %s, here %s %s", i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestExpectationsCoverEverySeed(t *testing.T) {
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if len(exp.Seeds) != 2 || exp.Seeds[0] != 1 {
		t.Fatalf("seeds = %v, want 1 and a held-out seed", exp.Seeds)
	}
	for _, seed := range exp.Seeds {
		key := strconv.FormatInt(seed, 10)
		for name, w := range workloads {
			if w.batch != nil {
				for _, q := range w.batch.queries {
					if e := exp.Batch[name][key][q.name]; e.Tuples == 0 || len(e.Digest) != 64 {
						t.Errorf("%s seed %s %s: %+v", name, key, q.name, e)
					}
				}
				continue
			}
			se := exp.Serve[key]
			if se.QueryTuples == 0 {
				t.Errorf("serve seed %s: no query count", key)
			}
			for tmpl := range verifyTemplates {
				if se.Verify[tmpl].Level != tmpl {
					t.Errorf("serve seed %s: template %s decided at %q", key, tmpl, se.Verify[tmpl].Level)
				}
			}
		}
	}
}
