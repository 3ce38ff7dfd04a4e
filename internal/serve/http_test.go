package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"faure/internal/budget"
	"faure/internal/obs"
)

func newHTTPServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, mutate)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	if out != nil {
		if err := json.Unmarshal([]byte(text), out); err != nil {
			t.Fatalf("bad response body %q: %v", text, err)
		}
	}
	return resp.StatusCode
}

func postUpdate(t *testing.T, url, id, body string) (int, updateResponse, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/update", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		req.Header.Set("X-Faure-Update-Id", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	var ur updateResponse
	_ = json.Unmarshal([]byte(text), &ur)
	return resp.StatusCode, ur, text
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	s, ts := newHTTPServer(t, nil)
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz = %d", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Draining: liveness stays up, readiness goes 503, /v1 refuses.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("draining healthz = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != 503 {
		t.Fatalf("draining readyz = %d, want 503", code)
	}
	var vr verifyResponse
	if code := postJSON(t, ts.URL+"/v1/verify", verifyRequest{Target: "panic() :- reach(F0, 1, 4)."}, &vr); code != 503 {
		t.Fatalf("draining verify = %d, want 503", code)
	}
}

func TestHTTPVerify(t *testing.T) {
	_, ts := newHTTPServer(t, nil)
	var vr verifyResponse
	// reach(F0, 1, 4) holds in both worlds of $x, so the "panic"
	// constraint is violated on the current state.
	code := postJSON(t, ts.URL+"/v1/verify", verifyRequest{
		Target: "panic() :- reach(F0, 1, 4).",
	}, &vr)
	if code != 200 {
		t.Fatalf("verify = %d", code)
	}
	if vr.Verdict != "violated" && vr.Verdict != "conditional" {
		t.Fatalf("verdict = %q (%s)", vr.Verdict, vr.Reason)
	}
	if vr.Level != "direct" {
		t.Errorf("level = %q, want direct", vr.Level)
	}

	// A prospective update is verified without being applied. The
	// target re-derives reachability itself: the update touches the
	// base fwd relation, so a constraint over a derived relation must
	// carry the deriving rules to see the update's effect.
	code = postJSON(t, ts.URL+"/v1/verify", verifyRequest{
		Target: `
			r(f, a, b) :- fwd(f, a, b).
			r(f, a, c) :- fwd(f, a, b), r(f, b, c).
			panic() :- r(F0, 1, 9).
		`,
		Update: "+fwd(F0, 4, 9).",
	}, &vr)
	if code != 200 {
		t.Fatalf("verify with update = %d", code)
	}
	if vr.Verdict == "holds" || vr.Verdict == "unknown" {
		t.Errorf("post-update verdict = %q (%s), want violated/conditional", vr.Verdict, vr.Reason)
	}
	// Without the update the same target holds: node 9 is unreachable.
	code = postJSON(t, ts.URL+"/v1/verify", verifyRequest{
		Target: `
			r(f, a, b) :- fwd(f, a, b).
			r(f, a, c) :- fwd(f, a, b), r(f, b, c).
			panic() :- r(F0, 1, 9).
		`,
	}, &vr)
	if code != 200 || vr.Verdict != "holds" {
		t.Fatalf("pre-update verdict = %q (code %d), want holds", vr.Verdict, code)
	}

	// Bad bodies are 400s, not 500s.
	if code := postJSON(t, ts.URL+"/v1/verify", verifyRequest{Target: "not a program"}, nil); code != 400 {
		t.Errorf("parse error = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/verify", verifyRequest{}, nil); code != 400 {
		t.Errorf("missing target = %d, want 400", code)
	}
	// So are relations whose arity disagrees within the request or with
	// the generation's fwd/3.
	for _, req := range []verifyRequest{
		{Target: "panic() :- fwd(F0, 1, 9).", Update: "+fwd(F0, 4)."},
		{Target: "panic() :- fwd(F0, 1, 9).", Update: "+fwd(F0, 4).", NoState: true},
		{Target: "panic() :- fwd(F0, 1, 9).", Known: []string{"panic() :- fwd(F0, a)."}},
		{Target: "panic() :- fwd(F0, a)."},
	} {
		if code := postJSON(t, ts.URL+"/v1/verify", req, nil); code != 400 {
			t.Errorf("arity mismatch %+v = %d, want 400", req, code)
		}
	}
}

func TestHTTPVerifyBudgetDegradesToUnknown(t *testing.T) {
	_, ts := newHTTPServer(t, nil)
	req, err := http.NewRequest("POST", ts.URL+"/v1/verify",
		strings.NewReader(`{"target": "panic() :- reach(F0, 1, 4)."}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Faure-Max-Solver-Steps", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr verifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	// Budget exhaustion is a 200 + Unknown with the trip named — a
	// degraded answer, not an error.
	if resp.StatusCode != 200 {
		t.Fatalf("budget-tripped verify = %d, want 200", resp.StatusCode)
	}
	if vr.Verdict != "unknown" || vr.Exhausted == nil {
		t.Fatalf("verdict = %q exhausted = %+v, want unknown + trip", vr.Verdict, vr.Exhausted)
	}
	if vr.Exhausted.Kind != string(budget.SolverSteps) {
		t.Errorf("exhausted kind = %q", vr.Exhausted.Kind)
	}

	// A malformed budget header is a 400.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/verify",
		strings.NewReader(`{"target": "panic() :- reach(F0, 1, 4)."}`))
	req2.Header.Set("X-Faure-Timeout", "soon")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("bad timeout header = %d, want 400", resp2.StatusCode)
	}
}

func TestHTTPQuery(t *testing.T) {
	_, ts := newHTTPServer(t, nil)
	var qr queryResponse
	// Warm relation read: no evaluation.
	if code := postJSON(t, ts.URL+"/v1/query", queryRequest{Pred: "reach"}, &qr); code != 200 {
		t.Fatalf("query = %d", code)
	}
	if qr.Tuples == 0 || !strings.Contains(qr.Table, "reach(") {
		t.Fatalf("warm query: tuples=%d table=%q", qr.Tuples, qr.Table)
	}
	// Ad-hoc program over the warm database.
	code := postJSON(t, ts.URL+"/v1/query", queryRequest{
		Program: "two_hop(a, c) :- fwd(F0, a, b), fwd(F0, b, c).",
		Pred:    "two_hop",
	}, &qr)
	if code != 200 {
		t.Fatalf("ad-hoc query = %d", code)
	}
	if qr.Tuples == 0 {
		t.Fatal("ad-hoc query returned no tuples")
	}
	if code := postJSON(t, ts.URL+"/v1/query", queryRequest{Pred: "nope"}, nil); code != 404 {
		t.Errorf("missing relation = %d, want 404", code)
	}
}

func TestHTTPUpdateRoundtrip(t *testing.T) {
	s, ts := newHTTPServer(t, nil)
	code, ur, text := postUpdate(t, ts.URL, "u1", "+fwd(F0, 4, 5).\n")
	if code != 200 || !ur.Applied || ur.Generation != 1 {
		t.Fatalf("update: code=%d resp=%s", code, text)
	}
	// Same id again: deduplicated.
	code, ur, _ = postUpdate(t, ts.URL, "u1", "+fwd(F0, 4, 5).\n")
	if code != 200 || ur.Applied || !ur.Duplicate {
		t.Fatalf("dup update: code=%d applied=%v dup=%v", code, ur.Applied, ur.Duplicate)
	}
	if s.Current().Seq != 1 {
		t.Fatalf("generation = %d, want 1", s.Current().Seq)
	}
	// Parse and arity failures are client errors.
	if code, _, _ := postUpdate(t, ts.URL, "", "not an update"); code != 400 {
		t.Errorf("bad body = %d, want 400", code)
	}
	if code, _, text := postUpdate(t, ts.URL, "", "+fwd(F0, 4).\n"); code != 409 {
		t.Errorf("arity mismatch = %d (%s), want 409 rollback", code, text)
	}
	if code, _, _ := postUpdate(t, ts.URL, "bad id", "+fwd(F0, 5, 6).\n"); code != 400 {
		t.Errorf("whitespace id = %d, want 400", code)
	}
}

// TestHTTPRollbackKeepsReadsServing is the acceptance check: while
// poisoned updates roll back, concurrent reads never see an error and
// the rollback counter moves.
func TestHTTPRollbackKeepsReadsServing(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newHTTPServer(t, func(c *Config) {
		c.Obs = reg
		c.UpdateLimits = budget.Limits{Tuples: 1}
		c.UpdateRetries = 1
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make(chan string, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var vr verifyResponse
				code := postJSON(t, ts.URL+"/v1/verify",
					verifyRequest{Target: "panic() :- reach(F0, 1, 4)."}, &vr)
				if code >= 500 {
					select {
					case readErrs <- fmt.Sprintf("read got %d", code):
					default:
					}
					return
				}
			}
		}()
	}
	const poisoned = 3
	for i := 0; i < poisoned; i++ {
		code, _, text := postUpdate(t, ts.URL, fmt.Sprintf("p%d", i), "+fwd(F0, 4, 5).\n")
		if code != 409 {
			t.Errorf("poisoned update %d: code=%d body=%s, want 409", i, code, text)
		}
	}
	close(stop)
	wg.Wait()
	close(readErrs)
	for e := range readErrs {
		t.Error(e)
	}
	if got := s.Rollbacks(); got != poisoned {
		t.Errorf("rollbacks = %d, want %d", got, poisoned)
	}
	if s.Current().Seq != 0 {
		t.Errorf("generation = %d, want 0 (nothing published)", s.Current().Seq)
	}
	// The Prometheus exposition carries the rollback counter and the
	// generation gauge under the promised names.
	code, body := getBody(t, ts.URL+"/metrics?format=prom")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, metric := range []string{"faure_serve_generation", "faure_serve_update_rollbacks_total", "faure_serve_inflight"} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics exposition lacks %s", metric)
		}
	}
}

// TestHTTPAdmissionControl: with the in-flight semaphore held, /v1
// requests shed with 429 + Retry-After while health stays up.
func TestHTTPAdmissionControl(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newHTTPServer(t, func(c *Config) {
		c.Obs = reg
		c.MaxInflight = 2
	})
	// Occupy every admission slot.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	defer func() { <-s.inflight; <-s.inflight }()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"pred": "reach"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Health and metrics bypass admission.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("saturated healthz = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/metrics"); code != 200 {
		t.Errorf("saturated metrics = %d", code)
	}
}

func TestHTTPGeneration(t *testing.T) {
	_, ts := newHTTPServer(t, func(c *Config) { c.Checksum = true })
	code, _, _ := postUpdate(t, ts.URL, "g1", "+fwd(F0, 4, 5).\n")
	if code != 200 {
		t.Fatalf("update = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/generation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gr map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	if gr["generation"].(float64) != 1 {
		t.Errorf("generation = %v", gr["generation"])
	}
	if gr["checksum"].(string) == "" {
		t.Error("checksum missing")
	}
	if gr["update"].(string) != "+fwd(F0, 4, 5).\n" {
		t.Errorf("update = %q", gr["update"])
	}
}

// TestHTTPPanicBoundary: a handler panic answers 500 and the server
// keeps serving other requests.
func TestHTTPPanicBoundary(t *testing.T) {
	s, ts := newHTTPServer(t, nil)
	// A request whose processing panics: wire a poisoned handler through
	// the same guard middleware the real endpoints use.
	h := s.guarded("poisoned", func(w http.ResponseWriter, r *http.Request) {
		panic("request poison")
	})
	mux := http.NewServeMux()
	mux.Handle("/poison", h)
	poisonSrv := httptest.NewServer(mux)
	defer poisonSrv.Close()

	resp, err := http.Get(poisonSrv.URL + "/poison")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("poisoned request = %d, want 500", resp.StatusCode)
	}
	// The process survived; normal requests still work.
	var qr queryResponse
	if code := postJSON(t, ts.URL+"/v1/query", queryRequest{Pred: "reach"}, &qr); code != 200 {
		t.Fatalf("query after panic = %d", code)
	}
}

// TestHTTPInternMetrics: /metrics refreshes the process-wide condition
// intern-table gauges at scrape time, so a resident service exposes
// them without ever reaching the batch commands' exit-time snapshot.
func TestHTTPInternMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newHTTPServer(t, func(c *Config) { c.Obs = reg })
	code, body := getBody(t, ts.URL+"/metrics?format=prom")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, metric := range []string{
		"faure_cond_intern_hits", "faure_cond_intern_misses",
		"faure_cond_intern_live", "faure_cond_intern_evictions",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics exposition lacks %s", metric)
		}
	}
	// Loading the snapshot interned conditions, so the live gauge is
	// positive — the scrape reflects the current table, not a zero
	// placeholder.
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, "faure_cond_intern_live %f", &v); err == nil {
			if v <= 0 {
				t.Errorf("faure_cond_intern_live = %v, want > 0", v)
			}
			return
		}
	}
	t.Error("faure_cond_intern_live has no sample line")
}
