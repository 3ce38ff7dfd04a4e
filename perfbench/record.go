package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"
)

// recordExpectations runs every workload once per recorded seed, each
// in a fresh child, and prints the expected.json those runs produce.
// It refuses to record a verify template decided at another ladder
// level than the one it is named for.
func recordExpectations(seeds []int64, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	exp := expectations{Seeds: seeds, Batch: map[string]map[string]map[string]queryExpect{}, Serve: map[string]serveExpect{}}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := workloads[name]
		for _, s := range seeds {
			d := &runner{name: name, w: w, dir: dir, seed: s, wseed: s}
			key := strconv.FormatInt(s, 10)
			if w.batch == nil {
				se, err := d.probeServe(ctx)
				if err != nil {
					return err
				}
				exp.Serve[key] = se
				continue
			}
			var rep batchReport
			if _, err := runOne(ctx, &rep, d.args("run")...); err != nil {
				return err
			}
			if exp.Batch[name] == nil {
				exp.Batch[name] = map[string]map[string]queryExpect{}
			}
			exp.Batch[name][key] = map[string]queryExpect{}
			for _, q := range rep.Queries {
				exp.Batch[name][key][q.Name] = queryExpect{Tuples: q.Tuples, Digest: q.Digest}
			}
		}
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}

// probeServe boots a serve child and records the answer to the first
// request of each verify template and of the query in a mix sequence.
func (d *runner) probeServe(ctx context.Context) (serveExpect, error) {
	c, err := startChild(ctx, d.args("serve")...)
	if err != nil {
		return serveExpect{}, err
	}
	se, perr := probe(c, d.w.serve.sequence(d.seed, 0))
	_, werr := c.wait()
	if perr != nil {
		return se, perr
	}
	return se, werr
}

func probe(c *child, seq []request) (serveExpect, error) {
	se := serveExpect{Verify: map[string]verifyExpect{}}
	var ready readyLine
	if err := readLine(c.out, &ready); err != nil {
		return se, err
	}
	seen := map[string]bool{}
	for _, r := range seq {
		if r.class == "update" || seen[r.kind] {
			continue
		}
		seen[r.kind] = true
		got, err := decodeResponse(send(http.DefaultClient, ready.Addr, r))
		if err != nil {
			return se, fmt.Errorf("%s %s: %w", r.class, r.kind, err)
		}
		if r.class == "query" {
			se.QueryTuples = got.Tuples
			continue
		}
		if got.Level != r.kind {
			return se, fmt.Errorf("verify template %s is decided at %s (%s)", r.kind, got.Level, got.Verdict)
		}
		se.Verify[r.kind] = verifyExpect{Verdict: got.Verdict, Level: got.Level}
	}
	return se, nil
}
