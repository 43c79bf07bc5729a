// Package federation is the geo-federated control plane: N regional
// controllers, each owning a static shard of the cloudlets, each running its
// own online.Engine over its own journal, asynchronously shipping sealed WAL
// segments to warm standbys that can be promoted when the leader dies.
//
// The design leans on two properties the rest of the repo already
// guarantees. First, the engine is deterministic: a standby that replays the
// leader's journal byte stream holds exactly the leader's state, so "warm
// standby" is nothing more than a Rehydrator fed shipped segments. Second,
// shard ownership is expressed *in the journal*: a fresh leader crashes (at
// model time zero) every compute node its shard does not own, so its engine
// can never allocate foreign capacity, recovery reproduces the mask from the
// WAL with no side channel, and cross-shard capacity overcommit is
// structurally impossible — two regions' engines never price the same node.
//
// Failover is fenced by a monotonic term. The leader persists its term next
// to the journal; every admission response is stamped with the term it was
// priced under; a promoted follower serves term max(seen)+1 and the old
// term's clients are answered 409 leader-failover until they re-offer under
// the new term (server.CheckTerm). Acked decisions are preserved exactly
// once across the cut: promotion replays the dead leader's journal through
// the last durable record — the torn tail of a mid-write death is dropped,
// and a torn record is by construction one whose ack was never sent.
package federation

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/server"
	"edgerep/internal/workload"
)

var (
	statShipSegments    = instrument.NewCounter("federation.ship_segments")
	statShipRetries     = instrument.NewCounter("federation.ship_retries")
	statFailovers       = instrument.NewCounter("federation.failovers")
	statHeartbeatMisses = instrument.NewCounter("federation.heartbeat_misses")
	gaugeReplicationLag = instrument.NewGauge("federation.replication_lag_records")
	timerShip           = instrument.NewTimer("federation.ship")
)

// Config describes one regional controller: the shared problem instance,
// which shard of it this region owns, and the engine/server/journal knobs.
// Every region in a federation must be built from the identical Instance —
// ownership is a pure function of the shared topology.
type Config struct {
	// Region is the human-readable region name ("eu-west", "r0", ...).
	Region string
	// Instance is the shared problem instance every region builds
	// identically; shard masks are carved out of it per region.
	Instance server.InstanceConfig
	// Shards is the number of regions in the federation; Shard is this
	// region's index in [0, Shards). Shards <= 1 means unfederated (no
	// mask, no forwarding).
	Shards int
	Shard  int
	// ExpectedArrivals sizes the engine's price schedule (the price base
	// is 1 + ExpectedArrivals); every region must agree on it.
	ExpectedArrivals int
	// MaxUtilization is the admission headroom (online.Options).
	MaxUtilization float64
	// SnapshotEvery bounds replay length (online.Options).
	SnapshotEvery int
	// SegmentBytes rotates (and therefore seals and ships) WAL segments at
	// this size; 0 means the journal default of 1 MiB. Drills use small
	// segments so shipping happens continuously.
	SegmentBytes int64
	// NoSync skips the journal's per-epoch fsync (drills and tests).
	NoSync bool
	// EpochMaxQueries bounds the server's micro-epochs.
	EpochMaxQueries int
	// DeterministicClock serves with a constant-zero model clock so every
	// arrival's AtSec comes from the request — the selfdrive/drill mode
	// whose journals are byte-reproducible.
	DeterministicClock bool
}

// OwnerOfNode maps a compute node to the shard that owns it: a static
// round-robin carve of the (ascending) node ID space. Pure and total so
// every region computes the same mask with no coordination.
func OwnerOfNode(v graph.NodeID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(v) % shards
}

// OwnerOfQuery maps a query to the shard owning its home cloudlet — the
// region whose engine must price it (everyone else's engine has the home
// node journaled as crashed).
func OwnerOfQuery(p *placement.Problem, q workload.QueryID, shards int) int {
	return OwnerOfNode(p.Queries[q].Home, shards)
}

// OwnerFunc curries OwnerOfQuery into the shape server.Router wants.
func OwnerFunc(p *placement.Problem, shards int) func(workload.QueryID) int {
	return func(q workload.QueryID) int { return OwnerOfQuery(p, q, shards) }
}

const termFile = "TERM"

// ReadTerm reads the persisted leadership term next to a journal directory;
// a missing file is term 0 (never led).
func ReadTerm(dir string) (int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, termFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("federation: read term: %w", err)
	}
	term, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("federation: parse term %q: %w", strings.TrimSpace(string(data)), err)
	}
	return term, nil
}

// WriteTerm durably persists the leadership term next to the journal
// (temp + fsync + rename, like every other durable artifact here), so a
// restarted controller can never serve an older term than it already served.
func WriteTerm(dir string, term int64) error {
	tmp, err := os.CreateTemp(dir, "term-*.tmp")
	if err != nil {
		return fmt.Errorf("federation: write term: %w", err)
	}
	name := tmp.Name()
	if _, err := fmt.Fprintf(tmp, "%d\n", term); err != nil {
		_ = tmp.Close()
		_ = os.Remove(name)
		return fmt.Errorf("federation: write term: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(name)
		return fmt.Errorf("federation: sync term: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(name)
		return fmt.Errorf("federation: close term: %w", err)
	}
	if err := os.Rename(name, filepath.Join(dir, termFile)); err != nil {
		_ = os.Remove(name)
		return fmt.Errorf("federation: publish term: %w", err)
	}
	return nil
}

// Leader is a live regional controller: an admission server over a
// journaling engine whose WAL the shard's followers pull from.
type Leader struct {
	cfg  Config
	p    *placement.Problem
	jn   *journal.Journal
	srv  *server.Server
	dir  string
	rec  Recovery
	dead chan struct{} // closed by Kill
}

// Recovery is what StartLeader found in its journal directory and what the
// start cost.
type Recovery struct {
	// Replayed is set when the journal held records or a snapshot and the
	// engine was recovered from them; Decisions counts what it recovered and
	// ReplayedRecords the journal records it re-applied past the snapshot.
	Replayed        bool
	Decisions       int
	ReplayedRecords int64
	// Torn is set when a half-written final record was dropped. It was
	// never acknowledged to any client.
	Torn bool
	// The cold-start timeline, in the order StartLeader pays it: building
	// the instance (topology, workload, delay rows of the query homes),
	// loading and opening the journal, and building the engine — its pricing
	// tables, then, when Replayed, decoding and loading the snapshot and
	// replaying the records after it (online.StartCost). A warm standby's
	// promotion pays none of them.
	InstanceBuild time.Duration
	JournalOpen   time.Duration
	TableBuild    time.Duration
	SnapshotLoad  time.Duration
	RecordsReplay time.Duration
}

func engineOptions(cfg Config) online.Options {
	return online.Options{
		MaxUtilization: cfg.MaxUtilization,
		SnapshotEvery:  cfg.SnapshotEvery,
	}
}

func serverConfig(cfg Config) server.Config {
	scfg := server.Config{
		EpochMaxQueries: cfg.EpochMaxQueries,
	}
	if cfg.DeterministicClock {
		scfg.Clock = func() float64 { return 0 }
	}
	return scfg
}

// StartLeader opens (or resumes) the region's journal in dir and returns a
// serving leader at the given term. A fresh journal is branded with the
// shard mask — every compute node the shard does not own is crashed at model
// time zero, journaled like any other crash, so recovery and standby replay
// reproduce the mask with no extra state. A journal that holds records or a
// snapshot is recovered instead (the mask is already in it): a restart needs
// no flag to say so, and a trace sink attached before the call sees the
// replayed offers re-emit their events.
//
// An empty dir is the load-test configuration: no journal and no persisted
// term, so nothing to ship — such a leader's Handler, Manifest and Kill must
// not be used.
func StartLeader(cfg Config, dir string, term int64) (*Leader, error) {
	if cfg.Shards > 1 && (cfg.Shard < 0 || cfg.Shard >= cfg.Shards) {
		return nil, fmt.Errorf("federation: shard %d of %d", cfg.Shard, cfg.Shards)
	}
	start := time.Now()
	p, err := server.BuildInstance(cfg.Instance)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	st := &journal.State{}
	var jn *journal.Journal
	if dir != "" {
		// Load first (tolerating a torn tail), then Open (which truncates
		// it), so the engine recovers exactly the acknowledged prefix and
		// appends from there.
		if st, err = journal.Load(dir); err != nil {
			return nil, err
		}
		jn, err = journal.Open(dir, journal.Options{SegmentBytes: cfg.SegmentBytes, NoSync: cfg.NoSync})
		if err != nil {
			return nil, err
		}
		if persisted, err := ReadTerm(dir); err != nil {
			return nil, err
		} else if term < persisted {
			return nil, fmt.Errorf("federation: term %d behind persisted term %d", term, persisted)
		}
	}
	opened := time.Now()
	opt := engineOptions(cfg)
	opt.Journal = jn
	rec := Recovery{Torn: st.Torn, InstanceBuild: built.Sub(start), JournalOpen: opened.Sub(built)}
	var eng *online.Engine
	if len(st.Records) > 0 || st.Snapshot != nil {
		eng, err = online.Recover(p, cfg.ExpectedArrivals, opt, st)
		if err != nil {
			return nil, err
		}
		rec.Replayed, rec.Decisions = true, len(eng.Result().Decisions)
		rec.ReplayedRecords = int64(len(st.Records)) - st.SnapshotLSN
	} else {
		eng = online.NewEngine(p, cfg.ExpectedArrivals, opt)
		if cfg.Shards > 1 {
			for _, v := range p.Cloud.Topology().ComputeNodes {
				if OwnerOfNode(v, cfg.Shards) == cfg.Shard {
					continue
				}
				if _, err := eng.Crash(0, v); err != nil {
					return nil, fmt.Errorf("federation: mask node %d: %w", v, err)
				}
			}
			if err := eng.Commit(); err != nil {
				return nil, fmt.Errorf("federation: commit shard mask: %w", err)
			}
		}
	}
	cost := eng.StartCost()
	rec.TableBuild, rec.SnapshotLoad, rec.RecordsReplay = cost.Tables, cost.Snapshot, cost.Replay
	l, err := lead(cfg, p, eng, jn, dir, term)
	if err != nil {
		return nil, err
	}
	l.rec = rec
	return l, nil
}

// lead persists the term next to the journal and starts the admission
// server fenced under it — the last step of StartLeader and of
// Standby.Promote.
func lead(cfg Config, p *placement.Problem, eng *online.Engine, jn *journal.Journal, dir string, term int64) (*Leader, error) {
	if jn != nil {
		if err := WriteTerm(dir, term); err != nil {
			return nil, err
		}
	}
	srv := server.New(p, eng, serverConfig(cfg))
	srv.SetTerm(term)
	return &Leader{cfg: cfg, p: p, jn: jn, srv: srv, dir: dir, dead: make(chan struct{})}, nil
}

// Recovery reports what StartLeader found in the journal (the zero value
// for a promoted standby, which starts a fresh WAL).
func (l *Leader) Recovery() Recovery { return l.rec }

// Server returns the leader's admission server.
func (l *Leader) Server() *server.Server { return l.srv }

// Problem returns the shared instance (for routers and audits).
func (l *Leader) Problem() *placement.Problem { return l.p }

// Journal returns the leader's WAL.
func (l *Leader) Journal() *journal.Journal { return l.jn }

// Dir returns the journal directory.
func (l *Leader) Dir() string { return l.dir }

// Region returns the configured region name.
func (l *Leader) Region() string { return l.cfg.Region }

// Shard returns the shard this leader owns.
func (l *Leader) Shard() int { return l.cfg.Shard }

// Term returns the leadership term the server is fencing under.
func (l *Leader) Term() int64 { return l.srv.Term() }

// Dead reports whether Kill has run.
func (l *Leader) Dead() bool {
	select {
	case <-l.dead:
		return true
	default:
		return false
	}
}

// Manifest describes the leader's shippable state: its identity, the LSN of
// its last durable record, and every sealed (immutable, CRC-stamped)
// segment a follower may pull. The active segment is deliberately absent —
// it is still being written; promotion picks up its durable prefix straight
// from disk.
type Manifest struct {
	Region   string             `json:"region"`
	Shard    int                `json:"shard"`
	Term     int64              `json:"term"`
	LSN      int64              `json:"lsn"`
	Segments []journal.SealInfo `json:"segments"`
}

// Manifest returns the current shipping manifest, or an error once the
// leader has been killed (the in-process analogue of connection refused).
func (l *Leader) Manifest() (Manifest, error) {
	if l.Dead() {
		return Manifest{}, fmt.Errorf("federation: leader %s is dead", l.cfg.Region)
	}
	return Manifest{
		Region:   l.cfg.Region,
		Shard:    l.cfg.Shard,
		Term:     l.srv.Term(),
		LSN:      l.jn.DurableLSN(),
		Segments: l.jn.SealedSegments(),
	}, nil
}

// Kill is the drill's SIGKILL: the WAL tail is torn mid-record (the
// signature crash-mid-write artifact) and the leader stops answering
// manifests. Nothing is drained — in-flight state is abandoned exactly as a
// kill -9 would abandon it.
func (l *Leader) Kill() error {
	select {
	case <-l.dead:
		return nil
	default:
	}
	close(l.dead)
	return l.jn.TearTail([]byte(`{"kind":"offer","query":0}`))
}

// Drain gracefully stops the admission pipeline, snapshots the engine and
// closes the journal — the clean-shutdown path (never used by the chaos
// drill's victim).
func (l *Leader) Drain() error {
	if err := l.srv.Drain(); err != nil || l.jn == nil {
		return err
	}
	return l.jn.Close()
}
