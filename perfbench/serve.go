package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"faure"
)

// serveMix is the resident-service workload: faure.Serve over a
// synthetic RIB with the write-ahead log on, driven over loopback HTTP
// by a closed loop of serveConns client connections. Each connection
// works through its own seeded request sequence.
type serveMix struct {
	prefixes int
	// Requests per connection and pass, by kind.
	verify map[string]int // by verify template
	query  int
	update map[string]int // insert, insert-delete
}

const serveConns = 2

// newServeMix builds the mix with perConn verify requests per
// connection and about 15% each of queries and updates, the 70/15/15
// split the workload is defined with. No recorded traffic says how
// requests divide within a class, so each class is split evenly: a
// third of the verifies per ladder level, half the updates per kind.
func newServeMix(prefixes, perConn int) serveMix {
	side := max(perConn*15/70, 1)
	return serveMix{
		prefixes: prefixes,
		verify:   map[string]int{"direct": perConn - 2*(perConn/3), "category-i": perConn / 3, "category-ii": perConn / 3},
		query:    side,
		update:   map[string]int{"insert": side - side/2, "insert-delete": side / 2},
	}
}

// The verify requests are built so that updates cannot change their
// answers: the direct target asks for a forwarding loop, which the
// benchmark's updates never create, and the containment targets are
// decided from the constraints alone. All three hold, as constraints
// on a healthy network do; a violated verdict is not measured.
const (
	knownSrc = "panic() :- fwd('pb-0', a, b), a != 900001.\npanic() :- fwd('pb-0', a, b), b != 900002."
	hop2Src  = "hop2(f, a, c) :- fwd(f, a, b), fwd(f, b, c)."
)

type verifyBody struct {
	Target string   `json:"target"`
	Known  []string `json:"known,omitempty"`
	Update string   `json:"update,omitempty"`
}

// verifyTemplates are named by the ladder level each is decided at.
var verifyTemplates = map[string]verifyBody{
	"direct":      {Target: "panic() :- reach(f, a, b), a = b."},
	"category-i":  {Target: "panic() :- fwd('pb-0', a, b), a < 900001.", Known: []string{knownSrc}},
	"category-ii": {Target: "panic() :- fwd('pb-0', a, b).", Known: []string{knownSrc}, Update: "-fwd('pb-0', 900001, 900002)."},
}

// request is one HTTP request of a sequence.
type request struct {
	class string // verify, query or update
	kind  string // verify template, "two-hop" or update kind
	path  string
	body  []byte
	id    string // X-Faure-Update-Id of an update
}

// sequence returns connection conn's seeded request sequence. Updates
// insert an isolated link under a fresh prefix; an insert-delete also
// deletes the connection's previous insert, which forces a full
// re-evaluation. Neither changes any verify or query answer.
func (m serveMix) sequence(seed int64, conn int) []request {
	var kinds []request
	for _, name := range sortedKeys(m.verify) {
		for i := 0; i < m.verify[name]; i++ {
			kinds = append(kinds, request{class: "verify", kind: name})
		}
	}
	for i := 0; i < m.query; i++ {
		kinds = append(kinds, request{class: "query", kind: "two-hop"})
	}
	for _, name := range sortedKeys(m.update) {
		for i := 0; i < m.update[name]; i++ {
			kinds = append(kinds, request{class: "update", kind: name})
		}
	}
	rnd := rand.New(rand.NewSource(seed*serveConns + int64(conn)))
	rnd.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// Marshalling the fixed request bodies cannot fail.
	inserted := 0
	for i := range kinds {
		r := &kinds[i]
		switch r.class {
		case "verify":
			r.path = "/v1/verify"
			r.body, _ = json.Marshal(verifyTemplates[r.kind])
		case "query":
			r.path = "/v1/query"
			r.body, _ = json.Marshal(map[string]string{"program": hop2Src, "pred": "hop2"})
		case "update":
			r.path = "/v1/update"
			r.id = fmt.Sprintf("c%d-u%d", conn, inserted)
			r.body = []byte(updateText(conn, inserted, r.kind == "insert-delete"))
			inserted++
		}
	}
	return kinds
}

// updateText inserts link 900001 → 900002 under prefix pb-c<conn>-<k>
// and, with del, deletes the same link under the previous prefix.
func updateText(conn, k int, del bool) string {
	s := fmt.Sprintf("+fwd('pb-c%d-%d', 900001, 900002).\n", conn, k)
	if del {
		s += fmt.Sprintf("-fwd('pb-c%d-%d', 900001, 900002).\n", conn, k-1)
	}
	return s
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// passStats is what one pass of the request sequences measured and
// checked, seen from the client side.
type passStats struct {
	latMS     map[string][]float64 // client-observed latency by request class
	latSumS   float64
	elapsedS  float64
	attempted int
	failed    int
	rejects   int
	acked     int // updates acknowledged as applied
	spans     []span
}

func (p *passStats) merge(o passStats) {
	for class, xs := range o.latMS {
		p.latMS[class] = append(p.latMS[class], xs...)
	}
	p.latSumS += o.latSumS
	p.attempted += o.attempted
	p.failed += o.failed
	p.rejects += o.rejects
	p.acked += o.acked
	p.spans = append(p.spans, o.spans...)
}

// drivePass sends every connection's sequence to the server at addr,
// each connection waiting for a response before its next request, and
// checks every response against exp. The generations acknowledged to
// updates must be exactly 1..N, rising on each connection.
func drivePass(addr string, seqs [][]request, exp serveExpect, traced bool) passStats {
	start := time.Now()
	per := make([]passStats, len(seqs))
	gens := make([][]uint64, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c], gens[c] = driveConn(addr, seqs[c], exp, start, traced)
		}(c)
	}
	wg.Wait()
	total := passStats{latMS: map[string][]float64{}, elapsedS: time.Since(start).Seconds()}
	var all []uint64
	for c := range per {
		total.merge(per[c])
		for i := 1; i < len(gens[c]); i++ {
			if gens[c][i] <= gens[c][i-1] {
				total.failed++
				logf("connection %d: generation %d acknowledged after %d", c, gens[c][i], gens[c][i-1])
			}
		}
		all = append(all, gens[c]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, g := range all {
		if g != uint64(i+1) {
			total.failed++
			logf("acknowledged generations are not 1..%d: %v", len(all), all)
			break
		}
	}
	return total
}

func driveConn(addr string, seq []request, exp serveExpect, origin time.Time, traced bool) (passStats, []uint64) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	st := passStats{latMS: map[string][]float64{}}
	var gens []uint64
	for _, r := range seq {
		t0 := time.Now()
		status, body, err := send(client, addr, r)
		lat := time.Since(t0)
		st.attempted++
		st.latMS[r.class] = append(st.latMS[r.class], float64(lat)/float64(time.Millisecond))
		st.latSumS += lat.Seconds()
		if traced {
			st.spans = append(st.spans, span{Name: "http." + r.class, Parent: -1,
				Start: t0.Sub(origin).Seconds(), End: t0.Add(lat).Sub(origin).Seconds()})
		}
		gen, err := checkResponse(r, status, body, err, exp)
		if err != nil {
			st.failed++
			if status == http.StatusTooManyRequests {
				st.rejects++
			}
			if st.failed <= 3 {
				logf("%s %s: %v", r.class, r.kind, err)
			}
			continue
		}
		if r.class == "update" {
			gens = append(gens, gen)
			st.acked++
		}
	}
	return st, gens
}

// send posts one request of a sequence to the server at addr and
// returns the response status and body.
func send(client *http.Client, addr string, r request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if r.id != "" {
		req.Header.Set("X-Faure-Update-Id", r.id)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// response holds the fields of a service response the benchmark checks.
type response struct {
	Generation uint64 `json:"generation"`
	Verdict    string `json:"verdict"`
	Level      string `json:"level"`
	Tuples     int    `json:"tuples"`
	Applied    bool   `json:"applied"`
}

// decodeResponse decodes what send returned; a transport error or a
// status other than 200 is an error.
func decodeResponse(status int, body []byte, err error) (response, error) {
	var got response
	if err != nil {
		return got, err
	}
	if status != http.StatusOK {
		return got, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("decoding response: %w", err)
	}
	return got, nil
}

// checkResponse checks one response against the expected results and
// returns the generation an update was acknowledged with.
func checkResponse(r request, status int, body []byte, err error, exp serveExpect) (uint64, error) {
	got, err := decodeResponse(status, body, err)
	if err != nil {
		return 0, err
	}
	switch r.class {
	case "verify":
		want := exp.Verify[r.kind]
		if got.Verdict != want.Verdict || got.Level != want.Level {
			return 0, fmt.Errorf("verdict %s at %s, want %s at %s", got.Verdict, got.Level, want.Verdict, want.Level)
		}
	case "query":
		if got.Tuples != exp.QueryTuples {
			return 0, fmt.Errorf("%d tuples, want %d", got.Tuples, exp.QueryTuples)
		}
	case "update":
		if !got.Applied {
			return 0, errors.New("update not applied")
		}
	}
	return got.Generation, nil
}

// readyLine is the first line a serve child prints once its server
// accepts connections.
type readyLine struct {
	Addr   string  `json:"addr"`
	SetupS float64 `json:"setup_s"`
}

// serveReport is the last line a serve child prints, after the parent
// closed its standard input and the server shut down.
type serveReport struct {
	Applies   uint64 `json:"applies"`
	Rollbacks uint64 `json:"rollbacks"`
	// Traced runs only: per-layer metrics of the server side, the
	// median ladder time of the replayed verify requests, and the spans.
	Layers      map[string]float64 `json:"layers,omitempty"`
	LadderP50MS float64            `json:"ladder_p50_ms"`
	Spans       []span             `json:"spans,omitempty"`
}

// server is a booted faure-serve instance on a loopback listener.
type server struct {
	svc  *faure.Service
	http *http.Server
	addr string
	dir  string
	done chan error
}

// bootServer generates the RIB, starts the service as faure-serve does
// by default (warn-level logging, a private metrics registry), with its
// write-ahead log in a fresh directory under tmp, and starts serving
// HTTP on a loopback port.
func bootServer(m serveMix, seed int64, tmp string, tr *tracer) (*server, error) {
	var rib *faure.RIB
	var base *faure.Database
	tr.call("rib.generate", func() { rib = faure.GenerateRIB(faure.RIBConfig{Prefixes: m.prefixes, Seed: seed}) })
	tr.call("rib.forwarding_db", func() { base = rib.ForwardingDatabase() })
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, done: make(chan error, 1)}
	tr.call("serve.boot", func() {
		s.svc, err = faure.Serve(faure.ServiceConfig{
			Program: faure.ReachabilityProgram(),
			Base:    base,
			WALPath: filepath.Join(dir, "serve.wal"),
			Obs:     faure.NewMetrics(),
			Log:     slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		})
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.svc.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.http = &http.Server{Handler: s.svc.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the service down, waits for both, and
// removes the log directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	serr := s.svc.Shutdown(ctx)
	return errors.Join(herr, serr, os.RemoveAll(s.dir))
}

// serveChild is the server side of one serve-mix run: boot, print the
// ready line, serve until standard input closes, then (traced) replay
// the request classes against the layer entry points, shut down and
// print the report.
func serveChild(m serveMix, seed int64, tmp string, setupOnly, traced bool) error {
	tr := newTracer(traced)
	root := tr.begin("setup")
	start := time.Now()
	s, err := bootServer(m, seed, tmp, tr)
	if err != nil {
		return err
	}
	setup := time.Since(start).Seconds()
	tr.end(root)
	if err := emitLine(readyLine{Addr: s.addr, SetupS: setup}); err != nil {
		return errors.Join(err, s.stop())
	}
	if setupOnly {
		return s.stop()
	}
	before := readUsage()
	_, _ = io.Copy(io.Discard, os.Stdin) // the parent closes stdin when its pass ends
	load := readUsage().minus(before)
	// Applies counts the parent's updates only, not the replayed ones.
	rep := serveReport{Applies: s.svc.Applies()}
	if traced {
		rep.Layers = map[string]float64{}
		load.layers(rep.Layers)
		self := selfSeconds(tr.spans)
		for i, sp := range tr.spans {
			if sp.Parent >= 0 {
				rep.Layers[sp.Name+"_s"] = self[i]
			}
		}
		if rep.LadderP50MS, err = replay(m, s.svc, tr, rep.Layers); err != nil {
			return errors.Join(err, s.stop())
		}
		rep.Spans = tr.spans
	}
	if err := s.stop(); err != nil {
		return err
	}
	rep.Rollbacks = s.svc.Rollbacks()
	return emitLine(rep)
}

// replayReps is how many times each layer call is replayed.
const replayReps = 15

// replay calls the layer entry points behind each request class
// directly on the server's current generation, each call inside a
// span, and records the median time per layer in out. It returns the
// median ladder time over verify requests replayed in the mix's
// proportions of ladder levels.
func replay(m serveMix, svc *faure.Service, tr *tracer, out map[string]float64) (float64, error) {
	root := tr.begin("replay")
	defer tr.end(root)
	gen := svc.Current()
	v := &faure.Verifier{Doms: gen.Base.Doms}
	times := map[string][]float64{}
	timed := func(name string, fn func() error) (float64, error) {
		var err error
		ms := float64(tr.call(name, func() { err = fn() })) / float64(time.Millisecond)
		times[name] = append(times[name], ms)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", name, err)
		}
		return ms, nil
	}

	verifies := 0
	for _, n := range m.verify {
		verifies += n
	}
	var ladder []float64
	for _, name := range sortedKeys(m.verify) {
		target, known, u, err := parseVerify(verifyTemplates[name])
		if err != nil {
			return 0, err
		}
		for i := 0; i < 4*replayReps*m.verify[name]/verifies; i++ {
			ms, err := timed("verify.ladder_ms."+name, func() error {
				_, _, err := v.Ladder(target, known, u, gen.DB)
				return err
			})
			if err != nil {
				return 0, err
			}
			ladder = append(ladder, ms)
		}
	}

	catI, known, _, err := parseVerify(verifyTemplates["category-i"])
	if err != nil {
		return 0, err
	}
	direct, err := faure.Parse(verifyTemplates["direct"].Target)
	if err != nil {
		return 0, err
	}
	hop2, err := faure.Parse(hop2Src)
	if err != nil {
		return 0, err
	}
	ins, err := faure.ParseUpdate(updateText(serveConns, 0, false))
	if err != nil {
		return 0, err
	}
	insDel, err := faure.ParseUpdate(updateText(serveConns, 1, true))
	if err != nil {
		return 0, err
	}
	prog := faure.ReachabilityProgram()
	added := map[string][]faure.Tuple{}
	for _, c := range ins.Inserts {
		added[c.Pred] = append(added[c.Pred], faure.NewTuple(c.Values, faure.TrueCond()))
	}
	res, err := faure.Eval(hop2, gen.DB, faure.Options{})
	if err != nil {
		return 0, err
	}
	answer := faure.NewDatabase()
	answer.AddTable(res.DB.Table("hop2"))

	var loadExport []float64
	steps := []struct {
		name string
		fn   func() error
	}{
		{"containment.subsumes_ms", func() error { _, err := faure.Subsumes(catI, known, gen.Base.Doms, nil); return err }},
		{"rewrite.apply_ms", func() error { _, err := faure.ApplyUpdate(gen.Base, ins); return err }},
		{"faurelog.eval_increment_ms", func() error {
			_, err := faure.EvalIncrement(prog, gen.DB, added, faure.Options{})
			return err
		}},
		{"faurelog.eval_full_ms", func() error {
			post, err := faure.ApplyUpdate(gen.Base, insDel)
			if err == nil {
				_, err = faure.Eval(prog, post, faure.Options{})
			}
			return err
		}},
		{"faurelog.format_ms", func() error { faure.FormatDatabase(answer); return nil }},
		// The direct target's evaluation alone, for verify.load_export_ms.
		{"verify.direct_eval_ms", func() error {
			start := time.Now()
			res, err := faure.Eval(direct, gen.DB, faure.Options{})
			if err == nil {
				gap := time.Since(start) - res.Stats.SQLTime - res.Stats.SolverTime
				loadExport = append(loadExport, float64(gap)/float64(time.Millisecond))
			}
			return err
		}},
	}
	for i := 0; i < replayReps; i++ {
		for _, st := range steps {
			if _, err := timed(st.name, st.fn); err != nil {
				return 0, err
			}
		}
	}
	out["verify.load_export_ms"] = median(loadExport)

	// Server.Apply goes through the writer: rewrite, evaluation, WAL
	// append with fsync, publish.
	ctx := context.Background()
	for i := 0; i < replayReps; i++ {
		for _, kind := range []string{"insert", "delete"} {
			u, err := faure.ParseUpdate(updateText(serveConns+1, i, kind == "delete"))
			if err != nil {
				return 0, err
			}
			if _, err := timed("serve.apply_ms."+kind, func() error {
				_, _, err := svc.Apply(ctx, fmt.Sprintf("replay-%s-%d", kind, i), u)
				return err
			}); err != nil {
				return 0, err
			}
		}
	}
	for name, xs := range times {
		out[name] = median(xs)
	}
	out["serve.writer_overhead_ms"] = out["serve.apply_ms.insert"] - out["rewrite.apply_ms"] - out["faurelog.eval_increment_ms"]
	return median(ladder), nil
}

// parseVerify compiles a verify request body as the service does.
func parseVerify(b verifyBody) (faure.Constraint, []faure.Constraint, *faure.Update, error) {
	compile := func(name, src string) (faure.Constraint, error) {
		p, err := faure.Parse(src)
		if err != nil {
			return faure.Constraint{}, err
		}
		return faure.NewConstraint(name, p)
	}
	target, err := compile("target", b.Target)
	if err != nil {
		return target, nil, nil, err
	}
	var known []faure.Constraint
	for i, src := range b.Known {
		c, err := compile(fmt.Sprintf("known[%d]", i), src)
		if err != nil {
			return target, nil, nil, err
		}
		known = append(known, c)
	}
	var u *faure.Update
	if b.Update != "" {
		parsed, err := faure.ParseUpdate(b.Update)
		if err != nil {
			return target, nil, nil, err
		}
		u = &parsed
	}
	return target, known, u, nil
}
