// Command edgerepd is the always-on replication-admission daemon: it owns
// one deterministic cluster instance (topology + workload derived from
// -seed/-nodes/-datasets/-queries/-f/-k), coalesces queries arriving on
// POST /admit into micro-epochs, prices them against the online engine's
// incrementally maintained dual state, and answers admit/reject + placement
// + typed rejection reason. /metrics, /progress, and /debug/pprof/* share
// the same port (internal/ops). Every daemon is a federation.StartLeader
// over its -journal directory: decisions are durable before they are acked,
// and a start replays whatever the journal already holds before serving.
// SIGTERM (or SIGINT) drains gracefully: the in-flight micro-epoch finishes,
// the engine state is snapshotted, and the process exits 0.
//
// Usage (edgerepd <mode> -h lists a mode's flags):
//
//	edgerepd serve -http localhost:8080 -journal wal/      # serve admission, durably
//	edgerepd serve -http localhost:8080 -journal wal/      # restart: same line, nothing lost
//	edgerepd follow -http :8081 -journal promo/ -takeover wal/ http://localhost:8080
//	edgerepd selfdrive -count 200000                        # in-process load driver
//	edgerepd selfdrive -count 200000 -journal wal/ -proc-crash-after 120000
//	edgerepd drill -regions 3 -count 600 -journal drill/    # kill-the-leader drill
//	edgerepd drive -count 5000 http://localhost:8080        # HTTP load driver
//	edgerepd dump wal/                                      # the journal as JSON lines
//
// See OPERATIONS.md for the runbook (endpoint map, journal layout, crash
// drills) and examples/streaming-admission for an end-to-end walkthrough.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"edgerep/internal/federation"
	"edgerep/internal/server"
)

// modes are the subcommands. Each owns a flag.FlagSet holding exactly the
// flags it reads, so a flag that belongs to another mode is a parse error.
var modes = []struct {
	name, about string
	run         func(args []string) error
}{
	{"serve", "lead a region: answer /admit, /ship and /federation over a journal until SIGTERM", runServe},
	{"follow", "warm standby of the leader at <url>: ship its WAL, promote when it is lost", runFollow},
	{"selfdrive", "replay a seeded arrival stream through the in-process pipeline and report throughput", runSelfdrive},
	{"drill", "in-process multi-region kill-the-leader drill with the exactly-once audit", runDrill},
	{"drive", "POST a load at the daemon at <url>, then probe /metrics, /slo and /debug/flight", runDrive},
	{"dump", "print the journal in <dir> as JSON lines, one per record", runDump},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "edgerepd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var list strings.Builder
	for _, m := range modes {
		if len(args) > 0 && m.name == args[0] {
			if err := m.run(args[1:]); !errors.Is(err, flag.ErrHelp) {
				return err
			}
			return nil
		}
		fmt.Fprintf(&list, "\n  %-10s %s", m.name, m.about)
	}
	return fmt.Errorf("usage: edgerepd <mode> [flags]; edgerepd <mode> -h lists a mode's flags. Modes:%s", list.String())
}

// parse runs fs over args, insists on the required string flags, and binds
// what follows the flags to pos, in order. A mistake is reported once, by
// main; -h prints the mode's flags and returns flag.ErrHelp.
func parse(fs *flag.FlagSet, args, required []string, pos ...*string) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return err
	}
	if err == nil && fs.NArg() != len(pos) {
		err = fmt.Errorf("%d arguments after the flags, want %d", fs.NArg(), len(pos))
	}
	for _, name := range required {
		if err == nil && fs.Lookup(name).Value.String() == "" {
			err = fmt.Errorf("-%s is required", name)
		}
	}
	if err != nil {
		return fmt.Errorf("%w\nusage: %s (-h lists the flags)", err, fs.Name())
	}
	for i, p := range pos {
		*p = fs.Arg(i)
	}
	return nil
}

// bindInstance binds the flags that pin the problem instance.
func bindInstance(fs *flag.FlagSet, c *server.InstanceConfig) {
	d := server.DefaultInstance()
	fs.Int64Var(&c.Seed, "seed", d.Seed, "instance seed: topology and workload are a pure function of it")
	fs.IntVar(&c.Nodes, "nodes", d.Nodes, "network size |V| of the two-tier topology")
	fs.IntVar(&c.Datasets, "datasets", d.Datasets, "number of datasets")
	fs.IntVar(&c.Queries, "queries", d.Queries, "number of distinct queries in the instance (arrivals re-offer them)")
	fs.IntVar(&c.F, "f", d.F, "max demanded datasets per query")
	fs.IntVar(&c.K, "k", d.K, "replica bound K per dataset")
}

// daemonFlags are the groups every mode that stands up an engine shares —
// instance, engine and micro-epoch knobs, journal, observability — bound
// straight into the federation.Config the leader is started from.
type daemonFlags struct {
	fed     federation.Config
	journal string
	obs     obsFlags
}

func (d *daemonFlags) bind(fs *flag.FlagSet) {
	bindInstance(fs, &d.fed.Instance)
	fs.IntVar(&d.fed.ExpectedArrivals, "expected", 0, "expected total arrivals for the capacity price base (0: 1e6, or -count in selfdrive)")
	fs.Func("max-util", "reject admissions pushing a node above this utilization, in [0, 1] (0 = 1.0)", func(s string) error {
		u, err := strconv.ParseFloat(s, 64)
		if err == nil && !(u >= 0 && u <= 1) { // NaN fails too
			err = fmt.Errorf("%v is outside [0, 1]", u)
		}
		d.fed.MaxUtilization = u
		return err
	})
	fs.IntVar(&d.fed.EpochMaxQueries, "epoch-max", 256, "micro-epoch size bound (queries)")

	fs.StringVar(&d.journal, "journal", "", "journal every admission decision to a WAL in this directory; whatever it already holds is recovered first")
	fs.IntVar(&d.fed.SnapshotEvery, "snapshot-every", 20000, "snapshot engine state after every Nth journaled record (0 = WAL-only)")
	fs.BoolVar(&d.fed.NoSync, "nosync", false, "skip the per-epoch journal fsync (load tests; durability is reduced to the page cache)")
	fs.Int64Var(&d.fed.SegmentBytes, "segment-bytes", 0, "WAL segment rotation size in bytes (0 = 1MiB); smaller segments ship sooner")

	o := &d.obs
	fs.StringVar(&o.trace, "trace", "", "write the admission trace (deterministic JSONL) to this file")
	fs.BoolVar(&o.stats, "stats", false, "print runtime counters to stderr on exit")
	fs.BoolVar(&o.attribution, "attribution", true, "stamp every decision with a per-stage latency timeline (queue/coalesce/lookup/pricing/journal/fsync/ack)")
	fs.BoolVar(&o.slo, "slo", true, "track rolling 1m/5m/1h SLO attainment and burn rate, served on /slo")
	fs.DurationVar(&o.sloP95, "slo-p95", 5*time.Millisecond, "admission-latency objective: 95% of decisions within this")
	fs.DurationVar(&o.sloP99, "slo-p99", 25*time.Millisecond, "admission-latency objective: 99% of decisions within this")
	fs.Float64Var(&o.sloAttain, "slo-attainment", 0.5, "deadline-attainment objective: fraction of offers that must be admitted")
	fs.IntVar(&o.flight, "flight", 512, "flight recorder depth: keep the last N decision timelines + lifecycle events on /debug/flight (0 disables)")
}

// config is the leader (or standby) to stand up; expected is the mode's
// meaning of -expected 0.
func (d *daemonFlags) config(expected int) federation.Config {
	if d.fed.ExpectedArrivals <= 0 {
		d.fed.ExpectedArrivals = expected
	}
	if d.fed.Region == "" {
		d.fed.Region = fmt.Sprintf("r%d", d.fed.Shard)
	}
	return d.fed
}

// leaderFlags add what places a network-facing daemon (serve, follow) in
// its federation: where it listens, which shard it owns, where its peers
// are.
type leaderFlags struct {
	daemonFlags
	http  string
	peers map[int]string
}

func (c *leaderFlags) bind(fs *flag.FlagSet) {
	c.daemonFlags.bind(fs)
	fs.StringVar(&c.http, "http", "", "serve admission + ops on this address (e.g. localhost:8080; :0 picks a free port)")
	fs.StringVar(&c.fed.Region, "region", "", "region name reported on /ship and /federation (default r<shard>)")
	fs.IntVar(&c.fed.Shards, "shards", 1, "number of regions; >1 masks foreign cloudlets and forwards cross-shard admissions")
	fs.IntVar(&c.fed.Shard, "shard", 0, "this region's shard index in [0, -shards)")
	fs.Func("peers", "comma list of shard=baseURL forwarding targets (e.g. 0=http://a:8080,1=http://b:8080)", func(spec string) error {
		c.peers = make(map[int]string)
		for _, part := range strings.Split(spec, ",") {
			shard, url, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return fmt.Errorf("entry %q is not shard=baseURL", part)
			}
			idx, err := strconv.Atoi(shard)
			if err != nil {
				return fmt.Errorf("entry %q: %w", part, err)
			}
			c.peers[idx] = strings.TrimRight(url, "/")
		}
		return nil
	})
}

// bindArrivals binds the seeded arrival stream of the in-process load modes
// (selfdrive, drill) into the mode's own config.
func bindArrivals(fs *flag.FlagSet, count *int, seed *int64, modelRate, hold *float64, defaultCount int) {
	fs.IntVar(count, "count", defaultCount, "total offers to submit")
	fs.Int64Var(seed, "drive-seed", 7, "arrival-stream seed (query mix, model inter-arrivals, holds)")
	fs.Float64Var(modelRate, "model-rate", 1000, "model-time arrival rate encoded in AtSec stamps")
	fs.Float64Var(hold, "hold", 30, "mean model hold time in seconds")
}
