package faurelog

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"faure/internal/obs"
	"faure/internal/prov"
)

// TestCounterTable checks the counter table against Stats itself, so a
// Stats field added without a table entry fails here: every field is
// read by exactly one entry, Add combines every entry, and an observed
// evaluation emits every entry under its metric name.
func TestCounterTable(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	owner := map[string]string{}
	names, metrics := map[string]bool{}, map[string]bool{}
	for _, c := range Counters {
		var s Stats
		c.Set(&s, 1)
		var set []reflect.StructField
		for i := 0; i < st.NumField(); i++ {
			if !reflect.ValueOf(s).Field(i).IsZero() {
				set = append(set, st.Field(i))
			}
		}
		if len(set) != 1 {
			t.Fatalf("entry %s sets %d Stats fields", c.Name, len(set))
		}
		f := set[0]
		if prev, dup := owner[f.Name]; dup {
			t.Errorf("Stats.%s is read by entries %s and %s", f.Name, prev, c.Name)
		}
		owner[f.Name] = c.Name
		if names[c.Name] || metrics[c.Metric] {
			t.Errorf("entry %s (%s) repeats a name", c.Name, c.Metric)
		}
		names[c.Name], metrics[c.Metric] = true, true
		if isDur := f.Type == reflect.TypeOf(time.Duration(0)); isDur != (c.Kind == Timer) {
			t.Errorf("entry %s: Timer kind %v for a field of type %v", c.Name, c.Kind == Timer, f.Type)
		}
	}
	for i := 0; i < st.NumField(); i++ {
		if _, ok := owner[st.Field(i).Name]; !ok {
			t.Errorf("Stats.%s has no entry in Counters", st.Field(i).Name)
		}
	}

	// Add sums every counter and timer and keeps the larger gauge.
	var a, b Stats
	for i, c := range Counters {
		if c.Kind == Gauge {
			c.Set(&a, 1000)
			c.Set(&b, 5)
		} else {
			c.Set(&a, int64(10+i))
			c.Set(&b, int64(100+i))
		}
	}
	a.Add(b)
	for i, c := range Counters {
		want := int64(110 + 2*i)
		if c.Kind == Gauge {
			want = 1000
		}
		if got := c.Get(&a); got != want {
			t.Errorf("Add: %s = %d, want %d", c.Name, got, want)
		}
	}

	// One evaluation emits every entry under its metric name, with the
	// value Stats reports; provenance counters only with a recorder.
	db := condGraph(t, 8)
	prog := MustParse(condPrograms["negation"])
	for _, rec := range []*prov.Recorder{nil, prov.NewRecorder(0)} {
		m := obs.NewRegistry()
		res, err := Eval(prog, db, Options{Observer: m, Prov: rec})
		if err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		for _, c := range Counters {
			v := c.Get(&res.Stats)
			var seen bool
			switch c.Kind {
			case Timer:
				d, ok := snap.DurationsMS[c.Metric]
				seen = ok
				if ok && d.Count != 1 {
					t.Errorf("%s: %d duration samples, want 1", c.Metric, d.Count)
				}
			case Gauge:
				var g float64
				g, seen = snap.Gauges[c.Metric]
				if seen && g != float64(v) {
					t.Errorf("%s = %v, Stats has %d", c.Metric, g, v)
				}
			default:
				var n int64
				n, seen = snap.Counters[c.Metric]
				if seen && n != v {
					t.Errorf("%s = %d, Stats has %d", c.Metric, n, v)
				}
			}
			if want := !c.Prov || rec != nil; seen != want {
				t.Errorf("recorder %v: %s emitted %v, want %v", rec != nil, c.Metric, seen, want)
			}
		}
		for _, r := range Ratios {
			if g, ok := snap.Gauges[r.Metric]; !ok || g != r.Of(res.Stats) {
				t.Errorf("%s = %v (emitted %v), want %v", r.Metric, g, ok, r.Of(res.Stats))
			}
		}
		attrs := map[string]string{}
		for _, at := range snap.Spans[0].Attrs {
			attrs[at.Key] = at.Value
		}
		for _, c := range Counters {
			if got, ok := attrs[c.Name]; ok != c.Span || (ok && got != strconv.FormatInt(c.Get(&res.Stats), 10)) {
				t.Errorf("eval span attribute %s = %q (set %v), Span %v", c.Name, got, ok, c.Span)
			}
		}
	}
}
