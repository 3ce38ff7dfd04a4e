package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/guard"
	"faure/internal/obs"
	"faure/internal/rewrite"
	"faure/internal/verify"
)

// The HTTP surface:
//
//	POST /v1/verify      run the verification ladder against the current
//	                     generation
//	POST /v1/query       evaluate an ad-hoc program (or read a warm
//	                     relation) against the current generation
//	POST /v1/update      submit a network update (ParseUpdate text body)
//	GET  /v1/generation  current generation metadata
//	GET  /healthz        process liveness (always 200 while the process
//	                     serves)
//	GET  /readyz         readiness: 503 before the first generation and
//	                     while draining
//	GET  /metrics        the obs registry snapshot (JSON / text /
//	                     Prometheus exposition, negotiated)
//
// Degradation, not collapse: requests beyond the in-flight bound get
// 429 + Retry-After; a request past its budget gets its partial answer
// (verify: Unknown with the exhausted budget named) rather than an
// error; a poisoned request gets a 500 while every other request keeps
// being served from the same immutable generation.

// Request/response bodies.

type verifyRequest struct {
	// Target is the constraint to verify: a fauré-log program deriving
	// panic().
	Target string `json:"target"`
	// Known are the constraints known to hold (category i/ii).
	Known []string `json:"known,omitempty"`
	// Update, when set, is a prospective update in the ParseUpdate
	// textual format ("+f(a).\n-g(b)."): verify the target as of after
	// it, without applying it. Updates touch base relations only; a
	// target over a derived relation must carry the deriving rules
	// itself to see the update's effect (the warm copies of the
	// service program's relations reflect the current generation, not
	// the prospective one).
	Update string `json:"update,omitempty"`
	// NoState restricts the ladder to the constraint-only categories
	// (i/ii), answering as a tenant without state access would.
	NoState bool `json:"no_state,omitempty"`
}

type exceededJSON struct {
	Kind  string `json:"kind"`
	Limit int64  `json:"limit"`
	Where string `json:"where,omitempty"`
}

type verifyResponse struct {
	Generation uint64        `json:"generation"`
	Verdict    string        `json:"verdict"`
	Level      string        `json:"level,omitempty"`
	Reason     string        `json:"reason,omitempty"`
	Violation  string        `json:"violation_cond,omitempty"`
	Exhausted  *exceededJSON `json:"exhausted,omitempty"`
}

type queryRequest struct {
	// Program, when set, is an ad-hoc fauré-log program evaluated with
	// the generation's warm database as EDB. When empty, Pred is read
	// directly from the warm database (no evaluation at all).
	Program string `json:"program,omitempty"`
	// Pred selects the relation to return.
	Pred string `json:"pred"`
}

type queryResponse struct {
	Generation uint64        `json:"generation"`
	Pred       string        `json:"pred"`
	Tuples     int           `json:"tuples"`
	Table      string        `json:"table"`
	Exhausted  *exceededJSON `json:"exhausted,omitempty"`
}

type updateResponse struct {
	Generation uint64 `json:"generation"`
	Applied    bool   `json:"applied"`
	Duplicate  bool   `json:"duplicate,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func toExceededJSON(ex *budget.Exceeded) *exceededJSON {
	if ex == nil {
		return nil
	}
	return &exceededJSON{Kind: string(ex.Kind), Limit: ex.Limit, Where: ex.Where}
}

// Handler returns the service mux. Health, readiness and metrics
// bypass admission control (they must answer precisely when the server
// is saturated); the /v1 endpoints are wrapped in the admission
// semaphore and a panic boundary.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if s.Current() == nil {
			http.Error(w, "no generation yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	var reg *obs.Registry
	if r, ok := s.cfg.Obs.(*obs.Registry); ok {
		reg = r
	}
	// Refresh the condition intern-table gauges at scrape time (gauges,
	// not counters, so repeated scrapes don't inflate anything): the
	// batch commands snapshot these only at exit, which a resident
	// service never reaches.
	metrics := obs.MetricsHandler(reg)
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reg != nil {
			is := cond.InternStatsNow()
			reg.SetGauge("cond.intern_hits", float64(is.Hits))
			reg.SetGauge("cond.intern_misses", float64(is.Misses))
			reg.SetGauge("cond.intern_live", float64(is.Live))
			reg.SetGauge("cond.intern_evictions", float64(is.Evictions))
		}
		metrics.ServeHTTP(w, r)
	}))
	mux.Handle("GET /v1/generation", s.guarded("generation", s.handleGeneration))
	mux.Handle("POST /v1/verify", s.guarded("verify", s.handleVerify))
	mux.Handle("POST /v1/query", s.guarded("query", s.handleQuery))
	mux.Handle("POST /v1/update", s.guarded("update", s.handleUpdateHTTP))
	return mux
}

// guarded wraps a /v1 handler in admission control (bounded in-flight
// semaphore → 429 + Retry-After when full), the panic boundary (a
// poisoned request answers 500; the process and every other request
// keep going), readiness (503 while draining), and per-endpoint
// latency observation.
func (s *Server) guarded(name string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
			return
		}
		select {
		case s.inflight <- struct{}{}:
		default:
			if s.obsOn {
				s.o.Count("serve.admission_rejects", 1)
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, errors.New("server at capacity"))
			return
		}
		start := time.Now()
		if s.obsOn {
			s.o.SetGauge("serve.inflight", float64(len(s.inflight)))
		}
		defer func() {
			<-s.inflight
			if s.obsOn {
				s.o.ObserveDuration("serve.request_latency."+name, time.Since(start))
				s.o.SetGauge("serve.inflight", float64(len(s.inflight)))
			}
		}()
		var err error
		func() {
			defer guard.Recover("serve.http."+name, &err)
			h(w, r)
		}()
		if err != nil {
			// The handler panicked before (or instead of) writing its
			// response; degrade this one request.
			if s.obsOn {
				s.o.Count("serve.panics", 1)
			}
			s.log.Error("request panicked", "endpoint", name, "err", err)
			writeError(w, http.StatusInternalServerError, err)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// requestBudget builds the per-request budget: the configured defaults
// overridden field-wise by the X-Faure-Timeout, X-Faure-Max-Solver-Steps
// and X-Faure-Max-Tuples headers, tracked under the request context so
// a client disconnect cancels the work at its next checkpoint. A header
// may only tighten a configured bound, not lift it — the server's
// limits are its self-protection.
func (s *Server) requestBudget(r *http.Request) (*budget.B, error) {
	l := s.cfg.RequestLimits
	if h := r.Header.Get("X-Faure-Timeout"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad X-Faure-Timeout %q", h)
		}
		if l.Timeout == 0 || d < l.Timeout {
			l.Timeout = d
		}
	}
	tighten := func(header string, into *int64) error {
		h := r.Header.Get(header)
		if h == "" {
			return nil
		}
		n, err := strconv.ParseInt(h, 10, 64)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad %s %q", header, h)
		}
		if *into == 0 || n < *into {
			*into = n
		}
		return nil
	}
	if err := tighten("X-Faure-Max-Solver-Steps", &l.SolverSteps); err != nil {
		return nil, err
	}
	if err := tighten("X-Faure-Max-Tuples", &l.Tuples); err != nil {
		return nil, err
	}
	return budget.New(r.Context(), l), nil
}

func (s *Server) handleGeneration(w http.ResponseWriter, r *http.Request) {
	gen := s.Current()
	readonly := false
	if s.wal != nil && s.wal.Failed() != nil {
		readonly = true
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen.Seq,
		"created":    gen.Created.Format(time.RFC3339Nano),
		"update":     gen.Update,
		"checksum":   gen.Checksum,
		"applies":    s.applies.Load(),
		"rollbacks":  s.rollbacks.Load(),
		"retries":    s.retries.Load(),
		"replayed":   s.replayed.Load(),
		"readonly":   readonly,
	})
}

// parseConstraint compiles one constraint program from a request.
func parseConstraint(name, src string) (containment.Constraint, error) {
	prog, err := faurelog.Parse(src)
	if err != nil {
		return containment.Constraint{}, fmt.Errorf("%s: %w", name, err)
	}
	return containment.NewConstraint(name, prog)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Target == "" {
		writeError(w, http.StatusBadRequest, errors.New("target constraint required"))
		return
	}
	target, err := parseConstraint("target", req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var known []containment.Constraint
	for i, src := range req.Known {
		c, err := parseConstraint(fmt.Sprintf("known[%d]", i), src)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		known = append(known, c)
	}
	var u *rewrite.Update
	if req.Update != "" {
		parsed, err := rewrite.ParseUpdate(req.Update)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("update: %w", err))
			return
		}
		u = &parsed
	}
	bud, err := s.requestBudget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// The whole ladder runs against one immutable generation: a
	// concurrent update cannot shear the state mid-request.
	gen := s.Current()
	if err := checkArities(gen.DB, append([]containment.Constraint{target}, known...), u); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var db *ctable.Database
	if !req.NoState {
		db = gen.DB
	}
	v := &verify.Verifier{Doms: s.cfg.Doms, Schema: s.cfg.Schema,
		Obs: s.cfg.Obs, Budget: bud}
	rep, level, err := v.Ladder(target, known, u, db)
	if err != nil {
		// The ladder's own guard boundaries convert panics to errors; a
		// poisoned request degrades to Unknown over a 500 — the server
		// and the generation are untouched.
		if s.obsOn {
			s.o.Count("serve.verify_errors", 1)
		}
		s.log.Error("verify failed", "target", target.Name, "err", err)
		writeJSON(w, http.StatusInternalServerError, verifyResponse{
			Generation: gen.Seq, Verdict: verify.Unknown.String(),
			Reason: "internal error: " + err.Error(),
		})
		return
	}
	resp := verifyResponse{
		Generation: gen.Seq,
		Verdict:    rep.Verdict.String(),
		Level:      level,
		Reason:     rep.Reason,
		Exhausted:  toExceededJSON(rep.Exhausted),
	}
	if rep.ViolationCond != nil {
		resp.Violation = rep.ViolationCond.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkArities checks that each base relation a verify request names,
// in its constraints and its update, has one arity, and the arity its
// table has in db. The ladder would fail on a mismatch, and the fault
// is the request's.
func checkArities(db *ctable.Database, cs []containment.Constraint, u *rewrite.Update) error {
	arity := map[string]int{}
	use := func(rel string, n int) error {
		want, ok := arity[rel]
		if !ok {
			if tbl := db.Table(rel); tbl != nil {
				want, ok = tbl.Schema.Arity(), true
			}
		}
		if ok && want != n {
			return fmt.Errorf("relation %s used with arity %d, expected %d", rel, n, want)
		}
		arity[rel] = n
		return nil
	}
	for _, c := range cs {
		for rel, n := range c.BaseRelations() {
			if err := use(rel, n); err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
		}
	}
	if u != nil {
		for _, ch := range slices.Concat(u.Inserts, u.Deletes) {
			if err := use(ch.Pred, len(ch.Values)); err != nil {
				return fmt.Errorf("update: %w", err)
			}
		}
	}
	return nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Pred == "" {
		writeError(w, http.StatusBadRequest, errors.New("pred required"))
		return
	}
	gen := s.Current()
	db := gen.DB
	var exhausted *budget.Exceeded
	if req.Program != "" {
		prog, err := faurelog.Parse(req.Program)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		bud, err := s.requestBudget(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		opts := s.evalOptions(bud)
		res, err := faurelog.Eval(prog, gen.DB, opts)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		db = res.DB
		exhausted = res.Truncated
	}
	tbl := db.Table(req.Pred)
	if tbl == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no relation %s", req.Pred))
		return
	}
	one := ctable.NewDatabase()
	one.AddTable(tbl)
	writeJSON(w, http.StatusOK, queryResponse{
		Generation: gen.Seq,
		Pred:       req.Pred,
		Tuples:     len(tbl.Tuples),
		Table:      faurelog.FormatDatabase(one),
		Exhausted:  toExceededJSON(exhausted),
	})
}

// handleUpdateHTTP accepts an update as a text body in the ParseUpdate
// format. The X-Faure-Update-Id header makes re-submission idempotent:
// a client that lost the acknowledgement resubmits with the same id
// and gets applied=false, duplicate=true instead of a double apply.
func (s *Server) handleUpdateHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u, err := rewrite.ParseUpdate(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := r.Header.Get("X-Faure-Update-Id")
	for _, c := range id {
		if c == ' ' || c == '\n' || c == '\r' || c == '\t' {
			writeError(w, http.StatusBadRequest, errors.New("update id must not contain whitespace"))
			return
		}
	}
	gen, applied, err := s.Apply(r.Context(), id, u)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
			// Client went away; the update may still apply.
			writeError(w, http.StatusRequestTimeout, err)
		default:
			// Rolled back: validation failure, budget exhaustion after
			// retries, poisoned update, or failed WAL. The previous
			// generation keeps serving.
			status := http.StatusConflict
			if s.wal != nil && s.wal.Failed() != nil {
				status = http.StatusServiceUnavailable // read-only degradation
			}
			writeError(w, status, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Generation: gen.Seq,
		Applied:    applied,
		Duplicate:  !applied,
	})
}
