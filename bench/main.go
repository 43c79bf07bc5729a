// Command bench is the wire-to-disk benchmark of edgerepd. It builds the
// daemon's layers in process from their public constructors, generates all
// load itself from a seed, verifies what the daemon answered and left on
// disk, and prints every metric by name with its unit. README.md beside this
// file says what each workload and metric is for; BENCHMARK.json at the
// repository root is the contract the numbers are judged by.
//
//	go run ./bench -workload wire-durable            # end-to-end metrics
//	go run ./bench -workload wire-durable -trace 1   # per-layer metrics
//	go run ./bench -workload all                     # every workload in turn
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics of the run's mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// scratchDir holds everything a run writes: journals (so they sit on the
// working directory's filesystem, not on a tmpfs /tmp) and span files.
const scratchDir = ".bench_build"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	scratch  string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the arrival stream and the open-loop schedule")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long one workload measures")
	fs.IntVar(&trace, "trace", 0, "1: traced run (attribution on, spans kept), reports the per-layer metrics; 0: end-to-end run")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (JSONL); default "+scratchDir+"/spans-<workload>.jsonl")
	fs.StringVar(&o.scratch, "scratch", scratchDir, "directory for journals; put it on the filesystem the daemon would journal to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	o.traced = trace == 1

	var chosen []spec
	for _, sp := range specs(1) {
		if o.workload == "all" || o.workload == sp.name {
			chosen = append(chosen, sp)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	for _, sp := range chosen {
		res, err := runWorkload(sp, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs(1) {
		names = append(names, sp.name)
	}
	return names
}

// reading is one metric as the result line carries it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// runWorkload measures one workload, prints its report and returns its
// result line. An error means the program could not measure (a journal would
// not open, a listener would not bind); a run that measured and found wrong
// answers returns a result with Correct false instead.
func runWorkload(sp spec, o options, out io.Writer) (res result, err error) {
	r, err := newRunner(sp, o.seed, o.seconds, o.traced, o.scratch)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := r.cleanup(); err == nil {
			err = cerr
		}
	}()
	mode := "end-to-end run"
	defs := endToEnd
	if o.traced {
		mode, defs = "traced run", perLayer
	}
	fmt.Fprintf(out, "== %s: %s, seed %d, %.3g s budget\n", sp.name, mode, o.seed, o.seconds)
	fmt.Fprintf(out, "   why: %s\n", sp.why)
	fmt.Fprintf(out, "   sizes: %s\n", sp.sizes())
	fmt.Fprintf(out, "   %s; journals on %s\n", describeClient(), describeFilesystem(r.root))

	if err := r.run(); err != nil {
		return res, err
	}

	// attempted is the workload's own traffic; a failure in a guard section
	// is charged to it all the same, so that it fails the run.
	res = result{Attempted: r.home.attempted, Failed: min(r.home.failed+r.guards.failed, r.home.attempted), Metrics: make(map[string]reading, len(defs))}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "%-40s %16s %-6s %s\n", "metric", "value", "unit", "readings")
	// cpu is the run's CPU factor: the better quartile of its probes.
	cpu := r.s.better("bench.cpu_factor", false)
	for _, d := range defs {
		v, n := r.s.value(d.name)
		note := ""
		if !o.traced {
			v = r.s.better(d.name, higherIsBetter(d.name))
			if sp.cpuQuoted(d.name) && cpu > 0 {
				measured := v
				if v = v / cpu; higherIsBetter(d.name) {
					v = measured * cpu
				}
				note = fmt.Sprintf(" (as measured %.6g, CPU factor %.3f)", measured, cpu)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !o.traced && (n == 0 || v == 0) {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = reading{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-40s %16.6g %-6s %d%s\n", d.name, v, d.unit, n, note)
	}
	if !o.traced {
		for _, d := range ungated {
			if v, n := r.s.value(d.name); n > 0 {
				fmt.Fprintf(out, "%-40s %16.6g %-6s %d (not gated)\n", d.name, v, d.unit, n)
			}
		}
	}
	failedShare := float64(res.Failed) / math.Max(1, float64(res.Attempted))
	fmt.Fprintf(out, "%-40s %16.6g %-6s (%d of %d offers; guard sections %d of %d)\n", "failed_share", failedShare, "ratio",
		r.home.failed, r.home.attempted, r.guards.failed, r.guards.attempted)
	if k := len(r.postMs); k > 0 {
		fmt.Fprintf(out, "   latency over %d POSTs, %d beyond p95\n", k, beyond(k, 0.95))
	}
	for _, remark := range r.remarks {
		fmt.Fprintf(out, "   NOTE: %s\n", remark)
	}
	for _, note := range r.notes {
		fmt.Fprintf(out, "   FAILED: %s\n", note)
	}
	if o.traced {
		r.tr.printSelfTimes(out)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(o.scratch, "spans-"+sp.name+".jsonl")
		}
		if err := r.tr.write(path); err != nil {
			return res, err
		}
		fmt.Fprintf(out, "   %d spans written to %s\n", len(r.tr.spans), path)
	}
	return res, nil
}

// describeFilesystem names the mount and filesystem type a directory is on,
// from /proc/mounts: disk latencies in the report are that filesystem's.
func describeFilesystem(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return abs + " (filesystem unknown)"
	}
	best, desc := "", "filesystem unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, desc = mount, fmt.Sprintf("%s on %s (%s)", f[2], mount, f[0])
		}
	}
	return desc
}
