package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faure/internal/faultinject"
)

// TestServeSoak is the bounded robustness soak: concurrent verify and
// query clients, a live update stream, and periodic fault injection,
// all against one server. It asserts the degradation ladder end to
// end — reads never see a 5xx, every observed generation is
// internally consistent, no applied generation is dropped — then
// drains gracefully, forcibly kills a successor, and checks the WAL
// replay converges to the bit-identical database.
//
// Duration defaults to ~2s so the normal test run stays fast; CI's
// soak job stretches it with FAURE_SOAK (e.g. "45s").
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	duration := 2 * time.Second
	if env := os.Getenv("FAURE_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad FAURE_SOAK %q: %v", env, err)
		}
		duration = d
	}
	defer faultinject.Disarm()

	wal := filepath.Join(t.TempDir(), "soak.wal")
	s := newTestServer(t, func(c *Config) {
		c.WALPath = wal
		c.Checksum = true
		c.UpdateRetries = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	deadline := time.Now().Add(duration)
	stop := make(chan struct{})
	var (
		wg         sync.WaitGroup
		serverErrs atomic.Int64 // 5xx seen by readers (must stay 0)
		reads      atomic.Int64
		acked      atomic.Int64 // updates acknowledged applied
		rejected   atomic.Int64 // 409/429/503 on updates (fine)
	)
	failf := func(format string, args ...any) {
		serverErrs.Add(1)
		t.Errorf(format, args...)
	}

	// Verify clients.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/verify", "application/json",
					strings.NewReader(`{"target": "panic() :- reach(F0, 1, 4)."}`))
				if err != nil {
					continue // client-side churn is not a server failure
				}
				if resp.StatusCode >= 500 {
					failf("verify got %d", resp.StatusCode)
				}
				resp.Body.Close()
				reads.Add(1)
			}
		}()
	}
	// Query clients (one warm read, one ad-hoc evaluation).
	queries := []string{
		`{"pred": "reach"}`,
		`{"program": "two_hop(a, c) :- fwd(F0, a, b), fwd(F0, b, c).", "pred": "two_hop"}`,
	}
	for i := 0; i < 2; i++ {
		q := queries[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(q))
				if err != nil {
					continue
				}
				if resp.StatusCode >= 500 {
					failf("query got %d", resp.StatusCode)
				}
				resp.Body.Close()
				reads.Add(1)
			}
		}()
	}
	// Snapshot-consistency reader: every observed generation's checksum
	// must recompute, and sequence numbers never go backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen := s.Current()
			if gen.Seq < last {
				failf("generation went backwards: %d after %d", gen.Seq, last)
				return
			}
			last = gen.Seq
			if got := gen.checksum(); got != gen.Checksum {
				failf("generation %d failed its checksum (torn snapshot)", gen.Seq)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Update stream: inserts spread over four partitions (prefixes F0
	// to F3), every third one also deleting the previous insert, so
	// scoped splices of one and of two partitions run against the
	// concurrent readers. Ids are unique; on an ambiguous failure the
	// same id and body are retried (idempotency makes that safe).
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 4
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("soak-%d", n)
			body := fmt.Sprintf("+fwd(F%d, %d, %d).\n", n%4, n, n+1)
			if n%3 == 0 {
				body += fmt.Sprintf("-fwd(F%d, %d, %d).\n", (n-1)%4, n-1, n)
			}
			req, _ := http.NewRequest("POST", ts.URL+"/v1/update", strings.NewReader(body))
			req.Header.Set("X-Faure-Update-Id", id)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				continue
			}
			var ur updateResponse
			_ = json.NewDecoder(resp.Body).Decode(&ur)
			resp.Body.Close()
			switch {
			case resp.StatusCode == 200:
				acked.Add(1)
				n++
			case resp.StatusCode == 409 || resp.StatusCode == 429 || resp.StatusCode == 503:
				rejected.Add(1) // injected fault or shed load: retry same id
			default:
				failf("update got %d", resp.StatusCode)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Fault injector: periodically arm the rewrite point so some updates
	// roll back mid-soak, then disarm. (WAL points would stick the log
	// into read-only and end the stream, and the evaluator's points also
	// fire in the readers' evaluations, which must never fail; those
	// points get TestCrashRecovery.)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				faultinject.Disarm()
				return
			case <-time.After(150 * time.Millisecond):
			}
			faultinject.Arm(faultinject.RewriteApply, 1, errors.New("soak fault"))
			time.Sleep(30 * time.Millisecond)
			faultinject.Disarm()
		}
	}()

	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	faultinject.Disarm()

	// Zero dropped generations: every acknowledged update advanced the
	// published sequence exactly once.
	if got := s.Current().Seq; got != uint64(acked.Load()) {
		t.Errorf("final generation %d != %d acked updates (dropped or duplicated generations)", got, acked.Load())
	}
	if reads.Load() == 0 || acked.Load() == 0 {
		t.Fatalf("soak did no work: reads=%d acked=%d", reads.Load(), acked.Load())
	}
	t.Logf("soak: %d reads, %d updates applied, %d shed/rolled back, %d rollbacks, %d retries",
		reads.Load(), acked.Load(), rejected.Load(), s.Rollbacks(), s.retries.Load())

	// Clean SIGTERM-style drain: queued work finishes, WAL is fsynced.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	want := s.Current().CanonicalDump()

	// Crash-restart convergence: replay the soak's WAL into a fresh
	// server, force-kill it, replay again — every restart must land on
	// the bit-identical database.
	s2 := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if got := s2.Current().CanonicalDump(); got != want {
		t.Error("post-soak replay diverged from the drained state")
	}
	if s2.Replayed() != uint64(acked.Load()) {
		t.Errorf("replayed %d records, want %d", s2.Replayed(), acked.Load())
	}
	s2.Kill()
	s3 := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if got := s3.Current().CanonicalDump(); got != want {
		t.Error("replay after forced kill diverged")
	}
}
