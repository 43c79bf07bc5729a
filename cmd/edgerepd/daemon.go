// The modes that stand up an engine. serve, selfdrive and a promoted follow
// are all the same thing — a federation.Leader — so what surrounds it is
// written once: the observability setup (obsFlags.run), recovery reporting
// (startLeader), the route table and cross-shard router (leaderFlags.lead),
// the listener (listen) and the signal → drain → flight-snapshot tail
// (stopOnSignal, drainOn). See OPERATIONS.md for the operator's view.

package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"edgerep/internal/federation"
	"edgerep/internal/instrument"
	"edgerep/internal/ops"
	"edgerep/internal/server"
)

// obsFlags configure what the daemon observes about itself. None of it is
// semantic: decisions, journal and trace bytes do not depend on it.
type obsFlags struct {
	trace       string
	stats       bool
	attribution bool
	slo         bool
	sloP95      time.Duration
	sloP99      time.Duration
	sloAttain   float64
	flight      int
}

// statsOnExit turns collection on and returns the exit-time counter dump.
func statsOnExit(on bool) func() {
	if !on {
		return func() {}
	}
	instrument.Enable()
	return func() { fmt.Fprint(os.Stderr, instrument.FormatSnapshot(instrument.Snapshot())) }
}

// run attaches the observers, runs body, and detaches them. dir is where the
// flight recorder is dumped if body panics (drainOn dumps it on SIGTERM).
func (o obsFlags) run(dir string, body func() error) error {
	defer statsOnExit(o.stats)()
	if o.attribution {
		// Stage histograms live in the instrument registry, so attribution
		// implies collection.
		instrument.Enable()
		instrument.EnableAttribution()
	}
	if o.slo {
		instrument.Enable()
		instrument.SetSLOTracker(instrument.NewSLOTracker(instrument.SLOConfig{
			LatencyP95Target: o.sloP95.Seconds(),
			LatencyP99Target: o.sloP99.Seconds(),
			AttainmentTarget: o.sloAttain,
		}))
	}
	if o.flight > 0 {
		instrument.SetFlightRecorder(instrument.NewFlightRecorder(o.flight, nil))
	}
	// Best-effort post-mortem evidence: a panic on this goroutine dumps the
	// flight recorder next to the journal before the process dies.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(dir)
			panic(r)
		}
	}()
	if o.trace != "" {
		// Attached before the leader starts, so recovery's replayed offers
		// re-emit their events: a restarted daemon's trace is byte-identical
		// to one that never crashed.
		closeTrace, err := instrument.OpenTraceFile(o.trace)
		if err != nil {
			return err
		}
		defer func() {
			if err := closeTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "edgerepd: close trace: %v\n", err)
			}
		}()
	}
	return body()
}

// dumpFlight snapshots the flight recorder to <dir>/flight-snapshot.json —
// the automatic post-mortem artifact on SIGTERM drain or panic. No-op
// without an attached recorder or a journal directory to land it in.
func dumpFlight(dir string) {
	fr := instrument.CurrentFlightRecorder()
	if fr == nil || dir == "" {
		return
	}
	data, err := fr.DumpJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgerepd: flight snapshot: %v\n", err)
		return
	}
	path := filepath.Join(dir, "flight-snapshot.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "edgerepd: flight snapshot: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "edgerepd: flight snapshot written to %s\n", path)
}

// startLeader is federation.StartLeader plus the operator's start-up lines:
// the two recovery lines when they apply, and what the start cost, always.
func startLeader(cfg federation.Config, dir string, term int64) (*federation.Leader, error) {
	start := time.Now()
	l, err := federation.StartLeader(cfg, dir, term)
	if err != nil {
		return nil, err
	}
	total := time.Since(start)
	rec := l.Recovery()
	if rec.Torn {
		fmt.Fprintf(os.Stderr, "edgerepd: journal had a torn tail; the unacknowledged record was dropped\n")
	}
	if rec.Replayed {
		fmt.Fprintf(os.Stderr, "edgerepd: recovered %d decisions from %s (LSN %d)\n", rec.Decisions, dir, l.Journal().LSN())
	}
	// Whole milliseconds, rounded down, so the parts never read as more than
	// the total; what is left over is the term file and the server's start.
	ms := func(d time.Duration) float64 { return d.Truncate(time.Millisecond).Seconds() }
	fmt.Fprintf(os.Stderr, "edgerepd: cold start %.3fs: instance %.3fs, journal %.3fs, engine %.3fs (%d records replayed)\n",
		ms(total), ms(rec.InstanceBuild), ms(rec.JournalOpen), ms(rec.EngineBuild), rec.ReplayedRecords)
	return l, nil
}

// lead finishes a leader's wiring — at start for serve, at promotion for
// follow: the cross-shard router, then admission, federation and ops routes
// on one handler.
func (c *leaderFlags) lead(l *federation.Leader) http.Handler {
	if len(c.peers) > 0 {
		l.Server().SetRouter(&server.Router{
			Self:  c.fed.Shard,
			Owner: federation.OwnerFunc(l.Problem(), c.fed.Shards),
			Peers: c.peers,
		})
	}
	fmt.Printf("edgerepd: leading region %s shard %d/%d term %d (LSN %d)\n",
		l.Region(), l.Shard(), c.fed.Shards, l.Term(), l.Journal().LSN())
	return l.Server().Handler(l.Handler(ops.Handler()))
}

// listen binds addr, announces the bound address on stdout (the line
// scripts wait for) and returns the listener's close.
func listen(addr string, h http.Handler) (func(), error) {
	bound, shutdown, err := server.Serve(addr, h)
	if err != nil {
		return nil, err
	}
	fmt.Printf("edgerepd: serving on http://%s\n", bound)
	return func() {
		if err := shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "edgerepd: shutdown listener: %v\n", err)
		}
	}, nil
}

// stopOnSignal returns a channel closed on the first SIGTERM or SIGINT. The
// relay goroutine lives for the process.
func stopOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		fmt.Fprintf(os.Stderr, "edgerepd: %v: draining\n", <-sig)
		close(stop)
	}()
	return stop
}

// drainOn serves until stop closes, then drains: the in-flight micro-epoch
// finishes, the engine is snapshotted, and the flight recorder lands next to
// the journal.
func drainOn(stop <-chan struct{}, l *federation.Leader) error {
	<-stop
	if err := l.Drain(); err != nil {
		return err
	}
	dumpFlight(l.Dir())
	res := l.Server().Result()
	fmt.Fprintf(os.Stderr, "edgerepd: drained at term %d (LSN %d): admitted=%d rejected=%d volume=%.1fGB\n",
		l.Term(), l.Journal().LSN(), res.Admitted, res.Rejected, res.VolumeAdmitted)
	return nil
}

type serveConfig struct {
	leaderFlags
	term int64
}

// runServe leads one region until SIGTERM. A plain daemon is the one-shard
// leader; -shards/-shard/-peers make it one region of several.
func runServe(args []string) error {
	var c serveConfig
	fs := flag.NewFlagSet("edgerepd serve [flags]", flag.ContinueOnError)
	c.leaderFlags.bind(fs)
	fs.Int64Var(&c.term, "term", 1, "leadership term to serve under (must not regress the journal's TERM file)")
	if err := parse(fs, args, []string{"http", "journal"}); err != nil {
		return err
	}
	return c.obs.run(c.journal, func() error {
		l, err := startLeader(c.config(1_000_000), c.journal, c.term)
		if err != nil {
			return err
		}
		closeListener, err := listen(c.http, c.lead(l))
		if err != nil {
			return err
		}
		defer closeListener()
		return drainOn(stopOnSignal(), l)
	})
}

// swapHandler atomically swaps its delegate — promotion turns the follower's
// 503-ing /admit into the new leader's fenced admission handler without
// rebinding the listener.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

type followConfig struct {
	leaderFlags
	leader    string
	takeover  string
	heartbeat time.Duration
	failAfter int
}

// runFollow ships the leader's WAL into a warm standby, serving /federation
// and a replication-aware /healthz. When the leader misses -failover-after
// consecutive heartbeats, the follower finishes replay from -takeover, bumps
// the term, and from then on is a leader like any other.
func runFollow(args []string) error {
	var c followConfig
	fs := flag.NewFlagSet("edgerepd follow [flags] <leader base URL>", flag.ContinueOnError)
	c.leaderFlags.bind(fs)
	fs.StringVar(&c.takeover, "takeover", "", "the leader's journal directory to finish replay from at promotion")
	fs.DurationVar(&c.heartbeat, "heartbeat", 500*time.Millisecond, "manifest-poll (heartbeat) interval")
	fs.IntVar(&c.failAfter, "failover-after", 3, "consecutive missed heartbeats before the follower promotes itself")
	if err := parse(fs, args, []string{"http", "journal", "takeover"}, &c.leader); err != nil {
		return err
	}
	return c.obs.run(c.journal, func() error {
		fed := c.config(1_000_000)
		standby, err := federation.NewStandby(fed, federation.NewHTTPTransport(strings.TrimRight(c.leader, "/"), 2*time.Second))
		if err != nil {
			return err
		}
		var handler swapHandler
		handler.set(standby.FollowerHandler())
		closeListener, err := listen(c.http, &handler)
		if err != nil {
			return err
		}
		defer closeListener()
		fmt.Printf("edgerepd: following %s (region %s shard %d/%d, heartbeat %s, failover after %d misses)\n",
			c.leader, fed.Region, fed.Shard, fed.Shards, c.heartbeat, c.failAfter)

		stop := stopOnSignal()
		err = standby.Follow(c.heartbeat, c.failAfter, stop)
		if err == nil {
			fmt.Fprintf(os.Stderr, "edgerepd: follower stopped at LSN %d (leader term %d)\n", standby.LSN(), standby.LeaderTerm())
			return nil
		}
		if !errors.Is(err, federation.ErrLeaderLost) {
			return err
		}
		fmt.Fprintf(os.Stderr, "edgerepd: %v\n", err)
		l, err := standby.Promote(c.takeover, c.journal)
		if err != nil {
			return err
		}
		handler.set(c.lead(l))
		fmt.Printf("edgerepd: promoted to term %d (LSN %d), serving admissions\n", l.Term(), l.Journal().LSN())
		return drainOn(stop, l)
	})
}

type selfdriveConfig struct {
	daemonFlags
	drive      server.DriveConfig
	crashAfter int
}

// runSelfdrive replays a seeded arrival stream through the in-process
// admission pipeline of a one-shard leader. Model time comes entirely from
// the stream's AtSec stamps, never the wall clock, so journal and trace are
// byte-reproducible; with -journal a rerun resumes where the journal ends.
func runSelfdrive(args []string) error {
	var c selfdriveConfig
	fs := flag.NewFlagSet("edgerepd selfdrive [flags]", flag.ContinueOnError)
	c.daemonFlags.bind(fs)
	bindArrivals(fs, &c.drive.Count, &c.drive.Seed, &c.drive.ModelRatePerSec, &c.drive.MeanHoldSec, 200000)
	fs.Float64Var(&c.drive.RatePerSec, "rate", 0, "target offered load in queries/s of wall time (0 = as fast as possible)")
	fs.IntVar(&c.drive.Pipeline, "pipeline", 512, "max outstanding requests")
	fs.IntVar(&c.crashAfter, "proc-crash-after", 0, "fault injection: tear the WAL tail and kill -9 this process after the Nth decision (requires -journal)")
	if err := parse(fs, args, nil); err != nil {
		return err
	}
	if c.crashAfter > 0 && c.journal == "" {
		return fmt.Errorf("-proc-crash-after needs -journal")
	}
	c.fed.DeterministicClock = true
	return c.obs.run(c.journal, func() error {
		l, err := startLeader(c.config(c.drive.Count), c.journal, 1)
		if err != nil {
			return err
		}
		if c.crashAfter > 0 {
			l.Server().CrashAfter(int64(c.crashAfter), func() {
				// Die "mid-write": tear the WAL tail the way a power cut would,
				// then kill -9 ourselves — no defers, no flushes.
				if err := l.Kill(); err != nil {
					fmt.Fprintf(os.Stderr, "edgerepd: tear tail: %v\n", err)
				}
				proc, err := os.FindProcess(os.Getpid())
				if err == nil {
					if err := proc.Kill(); err != nil {
						fmt.Fprintf(os.Stderr, "edgerepd: self-kill: %v\n", err)
					}
				}
				select {}
			})
		}
		c.drive.StartIndex = l.Recovery().Decisions
		if c.drive.StartIndex >= c.drive.Count {
			return fmt.Errorf("journal already holds %d decisions, nothing left of -count %d", c.drive.StartIndex, c.drive.Count)
		}
		rep, err := server.Drive(l.Server(), c.drive)
		if err != nil {
			return err
		}
		fmt.Printf("edgerepd: selfdrive %s\n", rep)
		if err := l.Drain(); err != nil {
			return err
		}
		res := l.Server().Result()
		fmt.Printf("edgerepd: final admitted=%d rejected=%d volume=%.1fGB peak-util=%.3f\n",
			res.Admitted, res.Rejected, res.VolumeAdmitted, res.PeakUtilization)
		return nil
	})
}

// runDrill is the full kill-the-leader chaos drill (federation.RunDrill)
// with the exactly-once audit, printed as one JSON report line the CI gate
// parses.
func runDrill(args []string) error {
	var c federation.DrillConfig
	fs := flag.NewFlagSet("edgerepd drill [flags]", flag.ContinueOnError)
	bindInstance(fs, &c.Instance)
	bindArrivals(fs, &c.Count, &c.Seed, &c.ModelRatePerSec, &c.MeanHoldSec, 600)
	fs.IntVar(&c.Regions, "regions", 3, "number of regions, one leader each")
	fs.IntVar(&c.KillAfter, "kill-leader-after", 0, "SIGKILL the shard-0 leader after this many offers (0 = half of -count)")
	fs.StringVar(&c.BaseDir, "journal", "", "base directory for the per-region WALs")
	fs.Int64Var(&c.SegmentBytes, "segment-bytes", 0, "WAL segment rotation size in bytes (0 = 4096, so segments seal and ship continuously)")
	fs.StringVar(&c.TraceOut, "trace", "", "write the post-drill verification replay (deterministic JSONL) to this file")
	stats := fs.Bool("stats", false, "print runtime counters to stderr on exit")
	if err := parse(fs, args, []string{"journal"}); err != nil {
		return err
	}
	defer statsOnExit(*stats)()
	rep, err := federation.RunDrill(c)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("edgerepd: drill %s\n", data)
	fmt.Printf("edgerepd: drill ok: %d/%d acked exactly-once across the failover, term %d -> %d, promotion gap %.4fs model time\n",
		rep.Acked, rep.Offers, rep.OldTerm, rep.NewTerm, rep.PromotionGapModelSec)
	return nil
}
