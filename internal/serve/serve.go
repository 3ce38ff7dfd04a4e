package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"sync/atomic"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/faurelog"
	"faure/internal/guard"
	"faure/internal/obs"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// Config assembles a Server.
type Config struct {
	// Program is the fauré-log policy/query program kept warm: it is
	// evaluated once at startup and re-derived after every update.
	Program *faurelog.Program
	// Base is the initial network state (EDB relations plus c-variable
	// domains). The server never mutates it.
	Base *ctable.Database
	// WALPath names the append-only update journal. Empty disables
	// durability (updates are applied in memory only).
	WALPath string
	// Doms declares the c-variable domains verification requests solve
	// under; defaults to Base.Doms.
	Doms solver.Domains
	// Schema optionally types base-relation attributes for the
	// containment checks of category-(i)/(ii) verification.
	Schema *containment.Schema
	// MaxInflight bounds concurrently admitted HTTP requests; further
	// requests get 429 + Retry-After. Default 64.
	MaxInflight int
	// RequestLimits is the default per-request budget for verify and
	// query requests; X-Faure-Timeout / X-Faure-Max-Solver-Steps /
	// X-Faure-Max-Tuples headers override per field. The zero value
	// leaves requests unbounded (except for client cancellation, which
	// is always honored).
	RequestLimits budget.Limits
	// UpdateLimits is the per-attempt budget for applying one update.
	// The zero value leaves applies unbounded.
	UpdateLimits budget.Limits
	// UpdateRetries is how many times a transient (deadline) trip is
	// retried with capped exponential backoff before the update rolls
	// back. Default 3. Deterministic trips (solver-steps, tuples,
	// cond-size) and poisoned updates are never retried.
	UpdateRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt.
	// Default 10ms.
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Default 1s.
	MaxBackoff time.Duration
	// QueueDepth bounds the writer's update queue; a full queue rejects
	// with 429. Default 128.
	QueueDepth int
	// Checksum computes a SHA-256 of every generation's canonical dump
	// at publish (read back by consistency tests and /v1/generation).
	// Costs one dump per update; off by default.
	Checksum bool
	// Obs receives the server's metrics and spans (nil disables):
	// serve.generation / serve.inflight / serve.queue gauges,
	// serve.update_* counters (serve.update_scope.partition or .all and
	// serve.update_eval.increment or .full name each applied update's
	// path), per-endpoint latency distributions, and each update's
	// serve.update_stage.rewrite / .eval / .splice / .wal durations.
	Obs obs.Observer
	// Log is the structured logger (nil means slog.Default).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.UpdateRetries < 0 {
		c.UpdateRetries = 0
	} else if c.UpdateRetries == 0 {
		c.UpdateRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// applyReq is one queued update awaiting the writer.
type applyReq struct {
	id    string
	u     rewrite.Update
	reply chan applyResp
}

// applyResp is the writer's answer.
type applyResp struct {
	gen     *Generation // the generation serving the update (new or existing)
	applied bool        // false: duplicate id, already committed
	err     error
}

// Server is the resident verification service. Create one with New,
// mount Handler on an http.Server, and Shutdown (or Kill) it when
// done.
type Server struct {
	cfg  Config
	prog *faurelog.Program
	// positive gates the incremental apply path: EvalIncrement requires
	// a negation-free program, so servers with negated policies fall
	// back to full re-evaluation on every update.
	positive bool
	// part maps every predicate the program names to its partition
	// column (faurelog.Partition); nil when the program is
	// unpartitioned, and every update is then applied unscoped.
	part faurelog.Partitions

	cur atomic.Pointer[Generation]

	wal       *wal
	committed map[string]uint64 // update id → seq, writer-owned after New

	updates    chan applyReq
	inflight   chan struct{}
	draining   atomic.Bool
	ctx        context.Context
	cancel     context.CancelFunc
	writerStop chan struct{}
	writerDone chan struct{}

	o     obs.Observer
	obsOn bool
	log   *slog.Logger

	// counters mirrored into obs but also kept locally so tests and
	// /v1/generation can read them without a registry.
	applies   atomic.Uint64
	rollbacks atomic.Uint64
	retries   atomic.Uint64
	replayed  atomic.Uint64
}

// ErrDraining is returned to updates that arrive during shutdown.
var ErrDraining = errors.New("serve: shutting down")

// ErrQueueFull is returned when the writer's update queue is at
// capacity.
var ErrQueueFull = errors.New("serve: update queue full")

// New builds the server: it replays the WAL (if configured) through
// the same apply path as the live writer, evaluates the program to the
// warm generation, publishes it, and starts the writer goroutine. A
// replay failure or an initial-evaluation failure is a startup error —
// better to refuse to serve than to serve the wrong state.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Program == nil || cfg.Base == nil {
		return nil, fmt.Errorf("serve: Config.Program and Config.Base are required")
	}
	if cfg.Doms == nil {
		cfg.Doms = cfg.Base.Doms
	}
	positive := true
	for _, r := range cfg.Program.Rules {
		for _, a := range r.Body {
			if a.Neg {
				positive = false
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		prog:       cfg.Program,
		positive:   positive,
		part:       faurelog.Partition(cfg.Program),
		committed:  map[string]uint64{},
		updates:    make(chan applyReq, cfg.QueueDepth),
		inflight:   make(chan struct{}, cfg.MaxInflight),
		ctx:        ctx,
		cancel:     cancel,
		writerStop: make(chan struct{}),
		writerDone: make(chan struct{}),
		o:          obs.OrNop(cfg.Obs),
		obsOn:      cfg.Obs != nil && cfg.Obs.Enabled(),
		log:        cfg.Log,
	}

	var recs []walRecord
	if cfg.WALPath != "" {
		w, rs, err := openWAL(cfg.WALPath)
		if err != nil {
			cancel()
			return nil, err
		}
		s.wal = w
		recs = rs
	}

	gen, err := s.boot(recs)
	if err != nil {
		s.startupFail()
		return nil, err
	}
	s.publish(gen)

	go s.writer()
	return s, nil
}

// boot builds the generation the server starts from: the initial
// evaluation, then the replay of the WAL's records. A panic in either
// fails the boot with an error instead of crashing the process.
func (s *Server) boot(recs []walRecord) (gen *Generation, err error) {
	defer guard.Recover("serve.New", &err)
	// Initial evaluation: the warm generation 0.
	res, err := faurelog.Eval(s.prog, s.cfg.Base, s.evalOptions(nil))
	if err != nil {
		return nil, fmt.Errorf("serve: initial evaluation: %w", err)
	}
	if res.Truncated != nil {
		return nil, fmt.Errorf("serve: initial evaluation truncated: %w", res.Truncated)
	}
	gen = &Generation{Seq: 0, Base: s.cfg.Base, DB: res.DB, Created: time.Now()}

	// Replay: every committed record goes through applyOnce — the very
	// function the live writer uses — so the recovered database is
	// bit-identical to the pre-crash one. Replay is not budgeted: the
	// records were applied successfully once, so a budget that fails
	// them now would turn a restart into data loss.
	for _, rec := range recs {
		next, err := s.applyOnce(gen, rec.U, nil)
		if err != nil {
			return nil, fmt.Errorf("serve: wal replay: record %d: %w", rec.Seq, err)
		}
		next.Update = rec.Text
		gen = next
		if rec.ID != "" {
			s.committed[rec.ID] = rec.Seq
		}
		s.replayed.Add(1)
	}
	if len(recs) > 0 {
		s.log.Info("wal replayed", "records", len(recs), "generation", gen.Seq)
		if s.obsOn {
			s.o.Count("serve.wal_replayed", int64(len(recs)))
		}
	}
	return gen, nil
}

// startupFail releases the resources New acquired before the failure.
func (s *Server) startupFail() {
	s.cancel()
	if s.wal != nil {
		_ = s.wal.close()
	}
}

// Current returns the generation readers should serve from. The
// returned snapshot is immutable; callers may use it for the whole
// request without further synchronisation.
func (s *Server) Current() *Generation { return s.cur.Load() }

// Rollbacks returns how many updates failed and were rolled back.
func (s *Server) Rollbacks() uint64 { return s.rollbacks.Load() }

// Applies returns how many updates were applied and published.
func (s *Server) Applies() uint64 { return s.applies.Load() }

// Replayed returns how many WAL records startup replayed.
func (s *Server) Replayed() uint64 { return s.replayed.Load() }

// evalOptions assembles the engine options for one evaluation under
// the given budget.
func (s *Server) evalOptions(bud *budget.B) faurelog.Options {
	opts := faurelog.Options{Budget: bud}
	if s.obsOn {
		opts.Observer = s.cfg.Obs
	}
	return opts
}

// publish makes gen the current generation.
func (s *Server) publish(gen *Generation) {
	if s.cfg.Checksum {
		gen.Checksum = gen.checksum()
	}
	s.cur.Store(gen)
	if s.obsOn {
		s.o.SetGauge("serve.generation", float64(gen.Seq))
	}
}

// applyOnce materialises one update on a private copy of gen and
// re-derives the program: the category-(ii) cheap path (EvalIncrement
// seeded with just the inserted facts) when the update is insert-only
// and the program is positive, a full re-evaluation otherwise. When
// the program is partitioned and the update names a constant partition
// value wherever it changes a relation the program names, that
// evaluator runs over only the rows of the touched partitions, and the
// result is spliced into the parent generation's derived relations
// (see partitions and faurelog.Partitions). It never mutates gen — on
// any error the private copy is garbage and gen remains the server's
// consistent state. A truncated evaluation is a failure here: a
// partial fixpoint must never be published as a generation, because
// absence of a derived tuple would then be observable as a (wrong)
// decisive answer.
func (s *Server) applyOnce(gen *Generation, u rewrite.Update, bud *budget.B) (g *Generation, err error) {
	// A poisoned update must degrade this apply, not kill the writer
	// goroutine (a goroutine panic would take the whole process down).
	defer guard.Recover("serve.apply", &err)
	start := time.Now()
	newBase, err := rewrite.ApplyBudgeted(gen.Base, u, bud)
	if err != nil {
		return nil, err
	}
	rewritten := time.Now()
	incremental := s.positive && len(u.Deletes) == 0
	in := newBase
	if incremental {
		in = gen.DB
	}
	touched, scoped := s.partitions(u)
	if scoped {
		// The parent generation is checked too: Splice keeps its rows.
		if r, ok := s.part.Restrict(gen.DB, in, touched); ok {
			in = r
		} else {
			scoped = false
		}
	}
	evalStart := time.Now()
	var res *faurelog.Result
	if incremental {
		added := map[string][]ctable.Tuple{}
		for _, c := range u.Inserts {
			added[c.Pred] = append(added[c.Pred], ctable.NewTuple(c.Values, cond.True()))
		}
		res, err = faurelog.EvalIncrement(s.prog, in, added, s.evalOptions(bud))
	} else {
		res, err = faurelog.Eval(s.prog, in, s.evalOptions(bud))
	}
	if err != nil {
		return nil, err
	}
	if res.Truncated != nil {
		return nil, res.Truncated
	}
	spliceStart := time.Now()
	db := res.DB
	switch {
	case scoped:
		db = &ctable.Database{Tables: maps.Clone(newBase.Tables), Doms: newBase.Doms}
		for pred := range s.prog.IDB() {
			db.AddTable(s.part.Splice(pred, gen.DB.Table(pred), res.DB.Table(pred), touched))
		}
	case incremental:
		// The incremental result carries prev's EDB tables (deduped
		// inserts); swap in the authoritative post-update base relations
		// so DB and Base agree exactly.
		for name, tbl := range newBase.Tables {
			if !s.prog.IDB()[name] {
				db.AddTable(tbl)
			}
		}
	}
	next := &Generation{Seq: gen.Seq + 1, Base: newBase, DB: db, Created: time.Now()}
	if s.obsOn {
		scope, evaluator := "serve.update_scope.all", "serve.update_eval.full"
		if scoped {
			scope = "serve.update_scope.partition"
		}
		if incremental {
			evaluator = "serve.update_eval.increment"
		}
		s.o.Count(scope, 1)
		s.o.Count(evaluator, 1)
		s.o.ObserveDuration("serve.update_stage.rewrite", rewritten.Sub(start))
		s.o.ObserveDuration("serve.update_stage.eval", spliceStart.Sub(evalStart))
		// The splice stage is all the scoping costs: the restriction
		// before the evaluation and the splice after it.
		s.o.ObserveDuration("serve.update_stage.splice", evalStart.Sub(rewritten)+next.Created.Sub(spliceStart))
	}
	return next, nil
}

// partitions returns the partition values an update touches
// (faurelog.Partitions.Touch). scoped is false when the program is
// unpartitioned or some change to a relation the program names holds
// no constant at its partition column; an update that changes only
// relations the program does not name touches no partition.
func (s *Server) partitions(u rewrite.Update) (touched map[cond.Term]bool, scoped bool) {
	if s.part == nil {
		return nil, false
	}
	touched = map[cond.Term]bool{}
	for _, changes := range [][]rewrite.Change{u.Inserts, u.Deletes} {
		for _, c := range changes {
			if !s.part.Touch(touched, c.Pred, c.Values) {
				return nil, false
			}
		}
	}
	return touched, true
}

// transient reports whether a failed apply is worth retrying: only
// wall-clock trips are (a fresh attempt may land under the deadline);
// deterministic budget trips and poisoned updates will fail again
// identically.
func transient(err error) bool {
	ex, ok := budget.As(err)
	return ok && ex.Kind == budget.Deadline
}

// Apply submits an update and waits for the writer's verdict: the
// generation now serving it, whether this call applied it (false for
// a duplicate id), and the rollback error if it failed. It is safe for
// concurrent use; updates are serialised through the single writer.
func (s *Server) Apply(ctx context.Context, id string, u rewrite.Update) (*Generation, bool, error) {
	if s.draining.Load() {
		return nil, false, ErrDraining
	}
	req := applyReq{id: id, u: u, reply: make(chan applyResp, 1)}
	select {
	case s.updates <- req:
	default:
		if s.obsOn {
			s.o.Count("serve.update_queue_full", 1)
		}
		return nil, false, ErrQueueFull
	}
	if s.obsOn {
		s.o.SetGauge("serve.queue", float64(len(s.updates)))
	}
	select {
	case resp := <-req.reply:
		return resp.gen, resp.applied, resp.err
	case <-ctx.Done():
		// The update stays queued: the writer will still process it (the
		// client just stopped waiting), which keeps the WAL and the
		// generation sequence well-defined.
		return nil, false, ctx.Err()
	case <-s.ctx.Done():
		return nil, false, ErrDraining
	}
}

// writer is the single goroutine that owns the update path: one update
// at a time, apply to a private copy, journal, publish — or roll back
// and keep serving the previous generation.
func (s *Server) writer() {
	defer close(s.writerDone)
	for {
		select {
		case req := <-s.updates:
			s.handleUpdate(req)
		case <-s.writerStop:
			// Graceful drain: finish everything already queued, then stop.
			for {
				select {
				case req := <-s.updates:
					s.handleUpdate(req)
				default:
					return
				}
			}
		case <-s.ctx.Done():
			return // hard kill: abandon the queue
		}
	}
}

// handleUpdate runs one update through validate → (retry) apply →
// journal → publish, answering the waiting client.
func (s *Server) handleUpdate(req applyReq) {
	start := time.Now()
	resp := s.applyUpdate(req.id, req.u)
	if s.obsOn {
		s.o.ObserveDuration("serve.update_latency", time.Since(start))
		s.o.SetGauge("serve.queue", float64(len(s.updates)))
	}
	req.reply <- resp
}

func (s *Server) applyUpdate(id string, u rewrite.Update) applyResp {
	gen := s.Current()
	if id != "" {
		if _, dup := s.committed[id]; dup {
			// Idempotent re-submission (e.g. after a lost ack): already
			// durable and applied.
			if s.obsOn {
				s.o.Count("serve.update_dups", 1)
			}
			return applyResp{gen: gen, applied: false}
		}
	}
	if err := u.Validate(gen.Base); err != nil {
		return applyResp{err: err}
	}
	if s.wal != nil {
		if err := s.wal.Failed(); err != nil {
			return applyResp{err: fmt.Errorf("serve: wal failed, read-only: %w", err)}
		}
	}

	// Apply with capped exponential backoff on transient trips.
	var (
		next    *Generation
		err     error
		backoff = s.cfg.RetryBackoff
	)
	for attempt := 0; ; attempt++ {
		// A fresh budget per attempt (a sticky trip must not poison the
		// retry), built on the server context so Kill/Shutdown aborts an
		// in-flight apply at its next checkpoint.
		bud := budget.New(s.ctx, s.cfg.UpdateLimits)
		next, err = s.applyOnce(gen, u, bud)
		if err == nil || !transient(err) || attempt >= s.cfg.UpdateRetries || s.ctx.Err() != nil {
			break
		}
		s.retries.Add(1)
		if s.obsOn {
			s.o.Count("serve.update_retries", 1)
		}
		s.log.Warn("update apply retry", "attempt", attempt+1, "err", err)
		select {
		case <-time.After(backoff):
		case <-s.ctx.Done():
		}
		backoff *= 2
		if backoff > s.cfg.MaxBackoff {
			backoff = s.cfg.MaxBackoff
		}
	}
	if err != nil {
		return s.rollback(u, err)
	}

	text := formatUpdate(u)
	next.Update = text
	if s.wal != nil {
		walStart := time.Now()
		if err := s.wal.append(walRecord{Seq: next.Seq, ID: id, Text: text}); err != nil {
			// Not durable: rolling back keeps the WAL ahead-or-equal
			// invariant (publishing now could lose an acknowledged update
			// on crash).
			return s.rollback(u, err)
		}
		if s.obsOn {
			s.o.ObserveDuration("serve.update_stage.wal", time.Since(walStart))
		}
	}
	// The record is durable; remember the id even if the publish step
	// below "crashes", so a re-submission dedups instead of double
	// applying after the client's ack was lost.
	if id != "" {
		s.committed[id] = next.Seq
	}
	if faultinject.Armed() {
		if err := faultinject.Fire(faultinject.ServePublish); err != nil {
			// Simulated crash between durability and visibility: the WAL
			// holds the record, the clients keep seeing the old generation,
			// and the next restart replays it.
			return applyResp{err: err}
		}
	}
	s.publish(next)
	s.applies.Add(1)
	if s.obsOn {
		s.o.Count("serve.update_applies", 1)
	}
	s.log.Info("update applied", "generation", next.Seq, "update", u.String())
	return applyResp{gen: next, applied: true}
}

// rollback records a failed apply. The previous generation stays
// published and untouched — ApplyBudgeted and EvalIncrement both work
// on private copies (their documented atomicity contracts), so there
// is nothing to undo.
func (s *Server) rollback(u rewrite.Update, err error) applyResp {
	s.rollbacks.Add(1)
	if s.obsOn {
		s.o.Count("serve.update_rollbacks", 1)
	}
	s.log.Warn("update rolled back", "update", u.String(), "err", err)
	return applyResp{err: fmt.Errorf("serve: update rolled back: %w", err)}
}

// Shutdown drains gracefully: new work is rejected (readyz goes 503,
// updates get ErrDraining), the writer finishes the queued updates,
// and the WAL is fsynced and closed. The context bounds the wait; on
// expiry the writer is killed hard (queued-but-unapplied updates are
// lost from memory — clients were not acked, and the WAL holds every
// acked one).
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.writerDone
		return nil
	}
	close(s.writerStop)
	var err error
	select {
	case <-s.writerDone:
	case <-ctx.Done():
		s.cancel() // aborts an in-flight apply at its next checkpoint
		<-s.writerDone
		err = ctx.Err()
	}
	s.cancel()
	if s.wal != nil {
		if cerr := s.wal.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Kill simulates a crash for recovery tests: the writer context is
// canceled (an in-flight apply aborts at its next budget checkpoint)
// and the WAL file is closed without the final sync pass. Data already
// fsynced by append stays durable; nothing else survives.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.cancel()
	<-s.writerDone
	if s.wal != nil {
		_ = s.wal.close()
	}
}
