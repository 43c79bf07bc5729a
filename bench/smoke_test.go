package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeWorkloads runs every workload in both modes at 1/100 scale: every
// verification passes, and each named metric is reported exactly once with a
// finite value and a unit.
func TestSmokeWorkloads(t *testing.T) {
	for _, sp := range specs(0.01) {
		for _, traced := range []bool{false, true} {
			mode, defs := "end-to-end", endToEnd
			if traced {
				mode, defs = "traced", perLayer
			}
			t.Run(sp.name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				o := options{seed: 1, seconds: 0, traced: traced, scratch: dir, traceOut: dir + "/spans.jsonl"}
				res, err := runWorkload(sp, o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				lines := strings.Split(out.String(), "\n")
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s not reported", d.name)
						continue
					}
					if !metricName.MatchString(d.name) {
						t.Errorf("metric name %q is not a plain identifier", d.name)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.name, m.Value)
					}
					if m.Unit == "" || m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
					printed := 0
					for _, line := range lines {
						if f := strings.Fields(line); len(f) > 0 && f[0] == d.name {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("metric %s printed %d times, want once", d.name, printed)
					}
				}
				if traced {
					data, err := os.ReadFile(o.traceOut)
					if err != nil {
						t.Fatalf("span file: %v", err)
					}
					var s span
					if err := json.Unmarshal(bytes.SplitN(data, []byte("\n"), 2)[0], &s); err != nil || s.Name == "" || s.End < s.Start {
						t.Errorf("first span %+v does not decode: %v", s, err)
					}
				}
				if entries, err := os.ReadDir(dir); err != nil || len(entries) > 1 {
					t.Errorf("scratch not cleaned up: %v %v", entries, err)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode holds the contract file to the code: the same
// workloads with the same reasons, the same metrics with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	sps := specs(1)
	if len(bm.Workloads) != len(sps) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bm.Workloads), len(sps))
	}
	for i, w := range bm.Workloads {
		if w.Name != sps[i].name || w.Why != sps[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, sps[i].name, sps[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], code has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Better == "higher") != higherIsBetter(m.Name) {
				t.Errorf("%s %s: better = %q, code reports the other quartile", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
}

// TestOpenLoopChargesStall stalls a stub server once for 50 ms and checks
// that every request that fell due during the stall is charged the part of
// it that was still to run — latency from the due time, not the send time,
// under which the requests queued behind the stall would look fast.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		gap     = 2 * time.Millisecond
		stall   = 50 * time.Millisecond
		stallAt = 20
		total   = 80
	)
	var gate sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		gate.Lock()
		defer gate.Unlock()
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	conns := []*conn{newConn(srv.URL), newConn(srv.URL)}
	due := make([]time.Duration, total)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	var failed atomic.Int64
	latency, lag, _ := openLoop(due, len(conns), func(c, _ int) {
		resp, err := conns[c].hc.Get(srv.URL)
		if err != nil {
			failed.Add(1)
			return
		}
		if err := resp.Body.Close(); err != nil {
			failed.Add(1)
		}
	})
	if failed.Load() > 0 {
		t.Fatalf("%d requests failed", failed.Load())
	}
	const slack = 5 * time.Millisecond
	for i := stallAt + 1; i < stallAt+int(stall/gap)-2; i++ {
		remaining := stall - (due[i] - due[stallAt]) - slack
		if latency[i] < remaining {
			t.Errorf("request %d fell due %v into the stall: latency %v, want >= %v", i, due[i]-due[stallAt], latency[i], remaining)
		}
	}
	// Waiting for a free connection is the daemon's doing, not the
	// generator's: it must not count as the generator running late.
	for i, l := range lag {
		if l > stall/2 {
			t.Errorf("request %d: generator lag %v includes the stall", i, l)
		}
	}
}

// TestSelfTime pins the self-time rule: a span's own time is its duration
// minus the union of its children, so overlapping children count once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},
	}}
	for _, lt := range tr.selfTimes() {
		want := map[string]time.Duration{"parent": 40, "child": 80}[lt.Name]
		if lt.Self != want {
			t.Errorf("%s: self %v, want %v", lt.Name, lt.Self, want)
		}
	}
}
