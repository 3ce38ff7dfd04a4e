package serve

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"faure/internal/network"
	"faure/internal/rib"
)

// newBenchServer builds a server over the synthetic RIB workload —
// the same state cmd/faure-serve boots with by default — so the
// numbers below are the service's real request costs, not a toy
// topology's.
func newBenchServer(b *testing.B, prefixes int, mutate func(*Config)) (*Server, *httptest.Server) {
	b.Helper()
	base := rib.Generate(rib.Config{Prefixes: prefixes, Seed: 1}).ForwardingDatabase()
	cfg := Config{
		Program: network.ReachabilityProgram(),
		Base:    base,
		Log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Kill()
	})
	return s, ts
}

func benchPost(b *testing.B, url, body string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeVerify: one full ladder run per request against the
// warm generation (direct level; the self-loop target scans the
// derived reach relation).
func BenchmarkServeVerify(b *testing.B) {
	_, ts := newBenchServer(b, 200, nil)
	body := `{"target": "panic() :- reach(f, a, b), a = b."}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/verify", body)
	}
}

// BenchmarkServeVerifyParallel: the same verify fanned out across
// GOMAXPROCS client goroutines — ns/op is wall time per request, so
// queries/sec = 1e9 / ns_per_op.
func BenchmarkServeVerifyParallel(b *testing.B) {
	_, ts := newBenchServer(b, 200, nil)
	body := `{"target": "panic() :- reach(f, a, b), a = b."}`
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, ts.URL+"/v1/verify", body)
		}
	})
}

// BenchmarkServeQueryWarm: snapshot read of the warm reach table —
// no evaluation, just the dump of an already-derived relation.
func BenchmarkServeQueryWarm(b *testing.B) {
	_, ts := newBenchServer(b, 200, nil)
	body := `{"pred": "reach"}`
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, ts.URL+"/v1/query", body)
		}
	})
}

// BenchmarkServeQueryAdHoc: a per-request fauré-log evaluation (the
// two-hop join) over the snapshot.
func BenchmarkServeQueryAdHoc(b *testing.B) {
	_, ts := newBenchServer(b, 200, nil)
	body := `{"program": "two_hop(f, a, c) :- fwd(f, a, b), fwd(f, b, c).", "pred": "two_hop"}`
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, ts.URL+"/v1/query", body)
		}
	})
}

var benchUpdateSeq atomic.Int64 // unique ids/facts across benchmark reruns

// benchUpdates measures end-to-end update latency: rewrite +
// re-evaluation + (optionally) WAL fsync + publish. Each insert is a
// disjoint edge so per-op work stays flat as the benchmark runs.
func benchUpdates(b *testing.B, wal bool, body func(n int64) string) {
	b.Helper()
	_, ts := newBenchServer(b, 200, func(c *Config) {
		if wal {
			c.WALPath = filepath.Join(b.TempDir(), "bench.wal")
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := benchUpdateSeq.Add(1)
		req, err := http.NewRequest("POST", ts.URL+"/v1/update",
			strings.NewReader(body(n)))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("X-Faure-Update-Id", fmt.Sprintf("bench-%d", n))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

func insertBody(n int64) string {
	return fmt.Sprintf("+fwd('bench/%d', %d, %d).\n", n, 2*n, 2*n+1)
}

// BenchmarkServeUpdateInsert: insert-only update on the incremental
// path, durably journaled (the default production configuration).
func BenchmarkServeUpdateInsert(b *testing.B) { benchUpdates(b, true, insertBody) }

// BenchmarkServeUpdateInsertNoWAL: the same insert without a WAL —
// the fsync share of update latency is the gap to the previous
// benchmark.
func BenchmarkServeUpdateInsertNoWAL(b *testing.B) { benchUpdates(b, false, insertBody) }

// BenchmarkServeUpdateDelete: each op deletes the previous op's edge
// and inserts a new one; the delete takes the full-evaluation path
// (over the two prefixes it names), so this is the worst-case update
// latency.
func BenchmarkServeUpdateDelete(b *testing.B) {
	benchUpdates(b, true, func(n int64) string {
		return fmt.Sprintf("-fwd('bench/%d', %d, %d).\n+fwd('bench/%d', %d, %d).\n",
			n-1, 2*(n-1), 2*(n-1)+1, n, 2*n, 2*n+1)
	})
}
