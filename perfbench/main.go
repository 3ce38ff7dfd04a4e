// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, each run of the workload in a fresh child
// process, checks every output against the results recorded in
// expected.json, and prints one JSON line with the end-to-end metrics,
// or with -trace 1 the per-layer metrics of a traced run.
//
//	bash perfbench/run.sh --workload table4-10k --seed 1 --seconds 40 --trace 0
//
// The parent process starts the children, reads their reports and
// peak RSS, and for serve-mix drives the HTTP load itself.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// workload is one named input set: a batch query chain or the service
// mix.
type workload struct {
	batch *batch
	serve *serveMix
}

var workloads = map[string]workload{
	"table4-10k":     {batch: table4(10000)},
	"join-stress-2k": {batch: joinStress(2000)},
	"serve-mix":      {serve: &serveMix260},
}

// serveMix260 sends 260 verify requests per connection and pass: the
// traced run's two passes give the 1000 samples a p99 needs.
var serveMix260 = newServeMix(200, 260)

//go:embed expected.json
var expectedJSON []byte

// expectations are the recorded outputs the benchmark checks against.
type expectations struct {
	// Seeds are the recorded workload seeds: 1, which every run uses
	// unless -wseed names another, and a held-out seed for confirming
	// later claims.
	Seeds []int64                                      `json:"seeds"`
	Batch map[string]map[string]map[string]queryExpect `json:"batch"` // workload → seed → query
	Serve map[string]serveExpect                       `json:"serve"` // seed
}

type queryExpect struct {
	Tuples int    `json:"tuples"`
	Digest string `json:"digest"`
}

type serveExpect struct {
	QueryTuples int                     `json:"query_tuples"`
	Verify      map[string]verifyExpect `json:"verify"` // by template
}

type verifyExpect struct {
	Verdict string `json:"verdict"`
	Level   string `json:"level"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const (
	// setupReps is how many set-up-only children a run starts before
	// each full child, so that set-up time is the median of many cold
	// set-ups spread over the run.
	setupReps = 3
	// runMargin is how long a run may take beyond --seconds: the last
	// measured iteration may overrun, and a traced run does not depend
	// on --seconds at all.
	runMargin = 120 * time.Second
	// maxCoverageGap is how far the layer self times of a traced batch
	// run may stray from its wall time.
	maxCoverageGap = 0.05
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: table4-10k, join-stress-2k or serve-mix")
		seed    = flag.Int64("seed", 1, "run seed; orders the service mix's request sequences")
		wseed   = flag.Int64("wseed", 1, "recorded workload seed the inputs are generated from; 6 is held out for confirming claims")
		seconds = flag.Int("seconds", 40, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for logs, traces and scratch files")
		record  = flag.Bool("record", false, "print expected.json for the recorded seeds instead of measuring")

		childMode = flag.String("child", "", "internal: run as a child process (setup, run or serve)")
		workers   = flag.Int("workers", 1, "internal: a batch child's evaluation workers")
		traced    = flag.Bool("traced", false, "internal: a child records spans")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok && !*record {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *childMode != "" {
		if err := runChild(w, *childMode, *wseed, *workers, *traced, *dir); err != nil {
			fatal(err)
		}
		return
	}
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fatal(fmt.Errorf("expected.json: %w", err))
	}
	if *record {
		if err := recordExpectations(exp.Seeds, *dir); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(exp.Seeds, *wseed) {
		fatal(fmt.Errorf("no recorded results for workload seed %d; recorded: %v", *wseed, exp.Seeds))
	}
	d := &runner{name: *name, w: w, exp: exp, dir: *dir, seed: *seed, wseed: *wseed}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+runMargin)
	defer cancel()
	var res result
	var err error
	if *trace == 1 {
		res, err = d.traced(ctx)
	} else {
		res, err = d.measure(ctx, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// emitLine writes v as one JSON line on standard output.
func emitLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(line, '\n'))
	return err
}

// runChild is the body of a child process.
func runChild(w workload, mode string, wseed int64, workers int, traced bool, dir string) error {
	switch {
	case w.serve != nil && (mode == "setup" || mode == "serve"):
		tmp := filepath.Join(dir, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		return serveChild(*w.serve, wseed, tmp, mode == "setup", traced)
	case w.batch != nil && mode == "setup":
		return emitLine(batchReport{SetupS: setupBatch(w.batch, wseed)})
	case w.batch != nil && mode == "run":
		rep, err := runBatch(w.batch, wseed, workers, traced)
		if err != nil {
			return err
		}
		return emitLine(rep)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// child is a running child process with its standard output as a line
// reader and its standard input as the stop signal.
type child struct {
	cmd *exec.Cmd
	out *bufio.Reader
	in  io.WriteCloser
}

func startChild(ctx context.Context, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &child{cmd: cmd, out: bufio.NewReader(out), in: in}, nil
}

// wait closes the child's input, waits for it to exit, and returns its
// peak resident set size in MB.
func (c *child) wait() (float64, error) {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runOne starts a child, reads its single report line into v, and
// waits for it.
func runOne(ctx context.Context, v any, args ...string) (float64, error) {
	c, err := startChild(ctx, args...)
	if err != nil {
		return 0, err
	}
	if err := readLine(c.out, v); err != nil {
		_, werr := c.wait()
		return 0, errors.Join(err, werr)
	}
	return c.wait()
}

// readLine reads one JSON line from a child's output into v.
func readLine(r *bufio.Reader, v any) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading child output: %w", err)
	}
	return json.Unmarshal(line, v)
}

// runner runs one workload's children and turns their reports into the
// result line.
type runner struct {
	name  string
	w     workload
	exp   expectations
	dir   string
	seed  int64 // the run seed
	wseed int64 // the recorded workload seed it picks

	attempted, failed int
}

func (d *runner) args(mode string, extra ...string) []string {
	return append([]string{"-child", mode, "-workload", d.name, "-dir", d.dir,
		"-wseed", strconv.FormatInt(d.wseed, 10)}, extra...)
}

func (d *runner) result(defs []metricDef, vals map[string]float64, required bool) (result, error) {
	m, err := render(defs, vals, required)
	if err != nil {
		return result{}, err
	}
	return result{Correct: d.failed == 0, Attempted: d.attempted, Failed: d.failed, Metrics: m}, nil
}

// setups runs the set-up-only children and returns their set-up times.
func (d *runner) setups(ctx context.Context) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		var rep struct {
			SetupS float64 `json:"setup_s"`
		}
		if _, err := runOne(ctx, &rep, d.args("setup")...); err != nil {
			return nil, err
		}
		out = append(out, rep.SetupS)
	}
	return out, nil
}

// measure is the untraced run: full children until the time is up,
// at least one, each after setupReps set-up-only children.
func (d *runner) measure(ctx context.Context, length time.Duration) (result, error) {
	deadline := time.Now().Add(length)
	var setup, walls, rss, rates []float64
	// Start another iteration only when one as long as the last still
	// ends in time, so a run ends by its deadline instead of overrunning
	// it by up to one iteration.
	var last time.Duration
	for len(walls) == 0 || time.Now().Add(last).Before(deadline) {
		start := time.Now()
		s, err := d.setups(ctx)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, s...)
		var r iteration
		if d.w.batch != nil {
			r, err = d.batchChild(ctx, 1, false)
		} else {
			r, err = d.serveChild(ctx, false)
		}
		if err != nil {
			return result{}, err
		}
		setup = append(setup, r.setupS)
		walls = append(walls, r.wallS)
		rss = append(rss, r.rssMB)
		rates = append(rates, r.rate)
		last = time.Since(start)
	}
	return d.result(endToEnd, map[string]float64{
		"setup_s":        median(setup),
		"wall_s":         median(walls),
		"peak_rss_mb":    median(rss),
		"throughput_rps": median(rates),
	}, true)
}

// iteration is one full child run as the end-to-end metrics see it.
type iteration struct {
	setupS, wallS, rssMB float64
	rate                 float64 // operations completed per second
	batch                batchReport
	pass                 passStats
	serve                serveReport
}

func (d *runner) batchChild(ctx context.Context, workers int, traced bool) (iteration, error) {
	var rep batchReport
	extra := []string{"-workers", strconv.Itoa(workers)}
	if traced {
		extra = append(extra, "-traced")
	}
	rss, err := runOne(ctx, &rep, d.args("run", extra...)...)
	if err != nil {
		return iteration{}, err
	}
	d.checkBatch(rep)
	wall := rep.wallS()
	return iteration{setupS: rep.SetupS, wallS: wall, rssMB: rss,
		rate: ratio(float64(len(rep.Queries)), wall), batch: rep}, nil
}

// checkBatch compares each query's tuple count and digest with the
// recorded ones.
func (d *runner) checkBatch(rep batchReport) {
	want := d.exp.Batch[d.name][strconv.FormatInt(d.wseed, 10)]
	d.attempted += len(d.w.batch.queries)
	d.failed += len(d.w.batch.queries) - len(rep.Queries)
	for _, q := range rep.Queries {
		e, ok := want[q.Name]
		if !ok || q.Tuples != e.Tuples || q.Digest != e.Digest {
			d.failed++
			logf("%s seed %d %s: %d tuples digest %.12s, want %d tuples digest %.12s",
				d.name, d.wseed, q.Name, q.Tuples, q.Digest, e.Tuples, e.Digest)
		}
	}
}

func (d *runner) serveChild(ctx context.Context, traced bool) (iteration, error) {
	exp, ok := d.exp.Serve[strconv.FormatInt(d.wseed, 10)]
	if !ok {
		return iteration{}, fmt.Errorf("no recorded serve-mix results for seed %d", d.wseed)
	}
	var extra []string
	if traced {
		extra = append(extra, "-traced")
	}
	c, err := startChild(ctx, d.args("serve", extra...)...)
	if err != nil {
		return iteration{}, err
	}
	var ready readyLine
	if err := readLine(c.out, &ready); err != nil {
		_, werr := c.wait()
		return iteration{}, errors.Join(err, werr)
	}
	seqs := make([][]request, serveConns)
	for i := range seqs {
		seqs[i] = d.w.serve.sequence(d.seed, i)
	}
	pass := drivePass(ready.Addr, seqs, exp, traced)
	c.in.Close()
	var rep serveReport
	rerr := readLine(c.out, &rep)
	rss, err := c.wait()
	if err := errors.Join(rerr, err); err != nil {
		return iteration{}, err
	}
	d.attempted += pass.attempted
	d.failed += pass.failed
	if rep.Applies != uint64(pass.acked) || rep.Rollbacks != 0 {
		d.failed++
		logf("server applied %d updates with %d rollbacks; %d were acknowledged", rep.Applies, rep.Rollbacks, pass.acked)
	}
	return iteration{setupS: ready.SetupS, wallS: pass.latSumS, rssMB: rss,
		rate: ratio(float64(pass.attempted-pass.failed), pass.elapsedS), pass: pass, serve: rep}, nil
}

// traced is the traced run: one untraced child for the overhead
// baseline, then a traced one whose spans, engine statistics and
// runtime deltas give the per-layer metrics. Its spans are written to
// the trace directory.
func (d *runner) traced(ctx context.Context) (result, error) {
	layers := map[string]float64{}
	spans := map[string][]span{} // by process: the parent, or the traced child
	if d.w.batch != nil {
		base, err := d.batchChild(ctx, 1, false)
		if err != nil {
			return result{}, err
		}
		tr, err := d.batchChild(ctx, 1, true)
		if err != nil {
			return result{}, err
		}
		batchLayers(tr.batch, layers)
		spans["child"] = tr.batch.Spans
		if cov := coverage(tr.batch.Spans, tr.wallS); math.Abs(cov-1) > maxCoverageGap {
			d.failed++
			logf("layer self times cover %.1f%% of wall_s, want within %.0f%% of it", 100*cov, 100*maxCoverageGap)
		}
		layers["trace.overhead_ratio"] = tr.wallS/base.wallS - 1
		if d.w.batch.twoWorkers {
			two, err := d.batchChild(ctx, 2, true)
			if err != nil {
				return result{}, err
			}
			layers["faurelog.speedup_2w"] = tr.wallS / two.wallS
		}
	} else {
		base, err := d.serveChild(ctx, false)
		if err != nil {
			return result{}, err
		}
		tr, err := d.serveChild(ctx, true)
		if err != nil {
			return result{}, err
		}
		for k, v := range tr.serve.Layers {
			layers[k] = v
		}
		pass := base.pass
		pass.merge(tr.pass)
		serveLatencies(pass, layers)
		layers["serve.http_overhead_ms"] = layers["verify_p50_ms"] - tr.serve.LadderP50MS
		layers["serve.rollbacks"] = float64(tr.serve.Rollbacks)
		layers["trace.overhead_ratio"] = tr.wallS/base.wallS - 1
		spans["parent"], spans["child"] = tr.pass.spans, tr.serve.Spans
	}
	layers["fail_ratio"] = ratio(float64(d.failed), float64(d.attempted))
	if err := d.writeSpans(spans); err != nil {
		return result{}, err
	}
	return d.result(perLayer, layers, false)
}

// serveLatencies reports the client-observed latency of each request
// class: the median, and the class's tail percentile when the samples
// support it (0 otherwise).
func serveLatencies(p passStats, out map[string]float64) {
	for class, tail := range map[string]float64{"verify": 99, "query": 90, "update": 90} {
		xs := p.latMS[class]
		out[class+"_samples"] = float64(len(xs))
		out[class+"_p50_ms"] = percentile(xs, 50)
		key := fmt.Sprintf("%s_p%d_ms", class, int(tail))
		if tailAllowed(tail, len(xs)) {
			out[key] = percentile(xs, tail)
		} else {
			logf("%d %s samples do not support p%d", len(xs), class, int(tail))
		}
	}
	out["serve.rejects"] = float64(p.rejects)
}

func (d *runner) writeSpans(spans map[string][]span) error {
	dir := filepath.Join(d.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", d.name, d.seed)), data, 0o644)
}
