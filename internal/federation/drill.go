// Kill-the-leader chaos drill: stands up an N-region federation on real
// listeners, routes ONE deterministic arrival stream across the regions
// round-robin (so cross-shard forwarding is always exercised), SIGKILLs the
// leader of one shard mid-load (torn WAL tail, dead listener), lets the warm
// standby detect the loss by missed heartbeats, promote, and fence the old
// term — then audits the whole thing: every 200-acked decision appears in
// exactly one journal record across the old and new leader, the merged
// history replays divergence-free (invariant.CheckFailover), and the
// replayed trace passes invariant.CheckTrace. The drill is deterministic end
// to end (single submitter, constant-zero server clocks, explicit model
// times, cadences keyed to offer indices), so ci.sh runs it twice and
// compares journal and trace bytes.

package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/retry"
	"edgerep/internal/server"
	"edgerep/internal/workload"
)

// DrillConfig parameterizes RunDrill. The zero value is filled with
// defaults sized for a CI gate (3 regions, 600 offers, kill at half-load).
type DrillConfig struct {
	// Regions is the federation size; 0 means 3.
	Regions int
	// Instance is the shared problem instance; zero means the server
	// default instance.
	Instance server.InstanceConfig
	// Count is the total offer count; 0 means 600. Seed drives the stream.
	Count int
	Seed  int64
	// BaseDir holds every region's journal directory (r0, r1, ..., plus
	// r<K>-promoted for the failed-over shard).
	BaseDir string
	// KillShard is the shard whose leader dies; KillAfter is the offer
	// index at which it dies (0 means Count/2).
	KillShard int
	KillAfter int
	// SyncEvery is the standby's heartbeat cadence in offer indices; 0
	// means 20. FailAfter is the consecutive missed heartbeats that trigger
	// promotion; 0 means 3.
	SyncEvery int
	FailAfter int
	// SegmentBytes keeps WAL segments small so sealing and shipping happen
	// continuously; 0 means 4096.
	SegmentBytes int64
	// ModelRatePerSec / MeanHoldSec shape the arrival stream (server
	// defaults when zero).
	ModelRatePerSec float64
	MeanHoldSec     float64
	// TraceOut, when non-empty, writes the post-drill verification replay
	// as a JSONL trace (the byte-identity artifact ci.sh compares).
	TraceOut string
}

func (d DrillConfig) withDefaults() DrillConfig {
	if d.Regions <= 0 {
		d.Regions = 3
	}
	if d.Instance == (server.InstanceConfig{}) {
		d.Instance = server.DefaultInstance()
	}
	if d.Count <= 0 {
		d.Count = 600
	}
	if d.KillAfter <= 0 {
		d.KillAfter = d.Count / 2
	}
	if d.SyncEvery <= 0 {
		d.SyncEvery = 20
	}
	if d.FailAfter <= 0 {
		d.FailAfter = 3
	}
	if d.SegmentBytes <= 0 {
		d.SegmentBytes = 4096
	}
	return d
}

func (d DrillConfig) regionConfig(shard int) Config {
	return Config{
		Region:             fmt.Sprintf("r%d", shard),
		Instance:           d.Instance,
		Shards:             d.Regions,
		Shard:              shard,
		ExpectedArrivals:   d.Count,
		SegmentBytes:       d.SegmentBytes,
		NoSync:             true,
		DeterministicClock: true,
	}
}

// DrillReport is RunDrill's outcome. Wall-clock fields vary run to run; the
// decision counts, terms, indices, and model times are deterministic.
type DrillReport struct {
	Regions  int `json:"regions"`
	Offers   int `json:"offers"`
	Acked    int `json:"acked"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	// Reoffered counts offers that went unacked while the killed shard was
	// leaderless and were re-offered after promotion.
	Reoffered int `json:"reoffered"`
	// Fenced counts 409 leader-failover answers observed (the deliberate
	// stale-term probe plus any organic stale re-offers).
	Fenced       int   `json:"fenced"`
	KillShard    int   `json:"kill_shard"`
	KillIndex    int   `json:"kill_index"`
	PromoteIndex int   `json:"promote_index"`
	OldTerm      int64 `json:"old_term"`
	NewTerm      int64 `json:"new_term"`
	// FailoverWallNs is kill→serving-again in wall time.
	FailoverWallNs int64 `json:"failover_wall_ns"`
	// PromotionGapModelSec is the killed shard's ack gap in model time:
	// first post-promotion ack minus last pre-kill ack.
	PromotionGapModelSec float64 `json:"promotion_gap_model_sec"`
	// SteadyLagRecords is the replication lag (leader LSN minus applied
	// LSN) at the last successful pre-kill sync.
	SteadyLagRecords int64 `json:"steady_lag_records"`
	// ShippedSegments is how many sealed segments the standby replayed
	// before the kill.
	ShippedSegments int `json:"shipped_segments"`
	// JournalOffers is the total offer-record count across every journal —
	// the exactly-once audit requires it to equal Acked.
	JournalOffers int `json:"journal_offers"`
	// TraceEvents counts the verification replay's emitted events.
	TraceEvents int `json:"trace_events"`
}

// ackRec identifies one acked decision for the exactly-once audit: the
// (query, effective model time) pair is the decision's identity in both the
// response stream and the journal.
type ackRec struct {
	Query int64
	At    float64
}

func sortAcks(a []ackRec) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].At != a[j].At {
			return a[i].At < a[j].At
		}
		return a[i].Query < a[j].Query
	})
}

// memSink collects trace events in memory for the verification replay.
type memSink struct {
	events []instrument.TraceEvent
}

func (m *memSink) Emit(ev *instrument.TraceEvent) { m.events = append(m.events, *ev) }

// RunDrill executes the drill and the full post-mortem audit, returning an
// error on ANY invariant breach — a lost ack, a duplicated journal record, a
// divergent merged replay, a trace violation, or a fencing failure.
func RunDrill(d DrillConfig) (*DrillReport, error) {
	d = d.withDefaults()
	R := d.Regions
	if d.KillShard < 0 || d.KillShard >= R {
		return nil, fmt.Errorf("federation: kill shard %d of %d", d.KillShard, R)
	}
	if d.BaseDir == "" {
		return nil, fmt.Errorf("federation: drill needs a base directory")
	}
	rep := &DrillReport{Regions: R, KillShard: d.KillShard, KillIndex: d.KillAfter}

	client := &http.Client{Timeout: 10 * time.Second}
	dirs := make([]string, R)
	leaders := make([]*Leader, R)
	addrs := make([]string, R)
	shutdowns := make([]func() error, R)
	for r := 0; r < R; r++ {
		dirs[r] = filepath.Join(d.BaseDir, fmt.Sprintf("r%d", r))
		if err := os.MkdirAll(dirs[r], 0o755); err != nil {
			return nil, fmt.Errorf("federation: drill dir: %w", err)
		}
		l, err := StartLeader(d.regionConfig(r), dirs[r], 1)
		if err != nil {
			return nil, err
		}
		leaders[r] = l
		addr, shutdown, err := server.Serve("127.0.0.1:0", l.Server().Handler(l.Handler(nil)))
		if err != nil {
			return nil, err
		}
		addrs[r] = "http://" + addr
		shutdowns[r] = shutdown
	}
	defer func() {
		for r := 0; r < R; r++ {
			if shutdowns[r] != nil {
				_ = shutdowns[r]()
			}
		}
	}()
	owner := OwnerFunc(leaders[0].Problem(), R)
	installRouters := func() {
		for r := 0; r < R; r++ {
			if leaders[r].Dead() {
				continue
			}
			peers := make(map[int]string, R)
			for s := 0; s < R; s++ {
				peers[s] = addrs[s]
			}
			leaders[r].Server().SetRouter(&server.Router{
				Self:   r,
				Owner:  OwnerFunc(leaders[r].Problem(), R),
				Peers:  peers,
				Client: client,
			})
		}
	}
	installRouters()

	standby, err := NewStandby(d.regionConfig(d.KillShard), &HTTPTransport{
		Base:   addrs[d.KillShard],
		Budget: 400 * time.Millisecond,
		Policy: retry.Policy{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Multiplier: 2, MaxAttempts: 3},
		Client: client,
	})
	if err != nil {
		return nil, err
	}

	terms := make([]int64, R)
	for r := range terms {
		terms[r] = 1
	}
	rep.OldTerm = 1
	promotedDir := dirs[d.KillShard] + "-promoted"

	// post offers req at region entry under entry's believed term. A 409
	// teaches us the new term and retries once; a transport error or
	// gateway failure returns acked=false (the offer goes pending).
	post := func(entry int, req server.AdmitRequest) (server.AdmitResponse, bool, error) {
		for attempt := 0; attempt < 2; attempt++ {
			req.Term = terms[entry]
			body, err := json.Marshal(req)
			if err != nil {
				return server.AdmitResponse{}, false, err
			}
			httpResp, err := client.Post(addrs[entry]+"/admit", "application/json", bytes.NewReader(body))
			if err != nil {
				return server.AdmitResponse{}, false, nil
			}
			data, err := io.ReadAll(httpResp.Body)
			_ = httpResp.Body.Close()
			if err != nil {
				return server.AdmitResponse{}, false, err
			}
			switch httpResp.StatusCode {
			case http.StatusOK:
				var resp server.AdmitResponse
				if err := json.Unmarshal(data, &resp); err != nil {
					return server.AdmitResponse{}, false, fmt.Errorf("federation: decode ack: %w", err)
				}
				return resp, true, nil
			case http.StatusConflict:
				var resp server.AdmitResponse
				if err := json.Unmarshal(data, &resp); err != nil {
					return server.AdmitResponse{}, false, fmt.Errorf("federation: decode fence: %w", err)
				}
				if resp.Reason != instrument.ReasonLeaderFailover {
					return server.AdmitResponse{}, false, fmt.Errorf("federation: 409 with reason %q", resp.Reason)
				}
				rep.Fenced++
				terms[entry] = resp.Term
				continue
			default:
				return server.AdmitResponse{}, false, nil
			}
		}
		return server.AdmitResponse{}, false, fmt.Errorf("federation: still fenced after term refresh at region %d", entry)
	}

	ackedBy := make([][]ackRec, R)
	var pendingReqs []server.AdmitRequest
	var lastAckedOld, firstAckedNew float64
	var killWall time.Time
	killed, promoted := false, false
	record := func(req server.AdmitRequest, resp server.AdmitResponse) {
		sh := owner(req.Query)
		ackedBy[sh] = append(ackedBy[sh], ackRec{Query: int64(resp.Query), At: resp.AtSec})
		rep.Acked++
		if resp.Admitted {
			rep.Admitted++
		} else {
			rep.Rejected++
		}
		if sh == d.KillShard {
			if !killed {
				lastAckedOld = resp.AtSec
			} else if promoted && firstAckedNew == 0 {
				firstAckedNew = resp.AtSec
			}
		}
	}

	promoteNow := func(idx int) error {
		nl, err := standby.Promote(dirs[d.KillShard], promotedDir)
		if err != nil {
			return err
		}
		addr, shutdown, err := server.Serve("127.0.0.1:0", nl.Server().Handler(nl.Handler(nil)))
		if err != nil {
			return err
		}
		leaders[d.KillShard] = nl
		addrs[d.KillShard] = "http://" + addr
		shutdowns[d.KillShard] = shutdown
		installRouters()
		promoted = true
		rep.PromoteIndex = idx
		rep.NewTerm = nl.Term()
		rep.FailoverWallNs = time.Since(killWall).Nanoseconds()

		// Deliberate stale-term probe: an in-flight offer of the dead
		// leader's era must be fenced, not priced — 409, leader-failover,
		// nothing journaled.
		probe := server.AdmitRequest{Query: firstOwnedQuery(leaders[d.KillShard].Problem(), d.KillShard, R), Term: rep.OldTerm}
		body, err := json.Marshal(probe)
		if err != nil {
			return err
		}
		httpResp, err := client.Post(addrs[d.KillShard]+"/admit", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("federation: stale-term probe: %w", err)
		}
		data, err := io.ReadAll(httpResp.Body)
		_ = httpResp.Body.Close()
		if err != nil {
			return err
		}
		if httpResp.StatusCode != http.StatusConflict {
			return fmt.Errorf("federation: stale-term probe answered %d, want 409", httpResp.StatusCode)
		}
		var fence server.AdmitResponse
		if err := json.Unmarshal(data, &fence); err != nil {
			return err
		}
		if fence.Reason != instrument.ReasonLeaderFailover || fence.Term != rep.NewTerm {
			return fmt.Errorf("federation: stale-term probe fenced with reason %q term %d, want %q term %d",
				fence.Reason, fence.Term, instrument.ReasonLeaderFailover, rep.NewTerm)
		}
		rep.Fenced++
		terms[d.KillShard] = rep.NewTerm

		// Re-offer everything that went unacked while the shard was
		// leaderless, in original order, directly at the new leader.
		for _, pr := range pendingReqs {
			resp, acked, err := post(d.KillShard, pr)
			if err != nil {
				return err
			}
			if !acked {
				return fmt.Errorf("federation: re-offer of query %d unacked after promotion", pr.Query)
			}
			record(pr, resp)
			rep.Reoffered++
		}
		pendingReqs = nil
		return nil
	}

	arrivals := server.Arrivals(len(leaders[0].Problem().Queries), server.DriveConfig{
		Count:           d.Count,
		Seed:            d.Seed,
		ModelRatePerSec: d.ModelRatePerSec,
		MeanHoldSec:     d.MeanHoldSec,
	})
	for i, req := range arrivals {
		if !killed && i == d.KillAfter {
			killed = true
			killWall = time.Now()
			if err := leaders[d.KillShard].Kill(); err != nil {
				return nil, err
			}
			_ = shutdowns[d.KillShard]()
			shutdowns[d.KillShard] = nil
		}
		if !promoted && i > 0 && i%d.SyncEvery == 0 {
			if err := standby.SyncOnce(); err != nil {
				if !killed {
					return nil, err
				}
				if standby.Misses() >= d.FailAfter {
					if err := promoteNow(i); err != nil {
						return nil, err
					}
				}
			} else {
				rep.SteadyLagRecords = standby.Lag()
				rep.ShippedSegments = standby.Status().SyncedSegs
			}
		}
		rep.Offers++
		resp, acked, err := post(i%R, req)
		if err != nil {
			return nil, err
		}
		if acked {
			record(req, resp)
		} else {
			pendingReqs = append(pendingReqs, req)
		}
	}
	// The stream may end while the shard is still leaderless: keep the
	// heartbeat loop going until the standby notices and promotes.
	for killed && !promoted {
		if err := standby.SyncOnce(); err != nil && standby.Misses() >= d.FailAfter {
			if err := promoteNow(d.Count); err != nil {
				return nil, err
			}
		}
	}
	if firstAckedNew > 0 {
		rep.PromotionGapModelSec = firstAckedNew - lastAckedOld
	}

	// Graceful drain of every surviving server, then the audit.
	for r := 0; r < R; r++ {
		if leaders[r].Dead() {
			continue
		}
		if err := leaders[r].Drain(); err != nil {
			return nil, err
		}
	}
	live := leaders[d.KillShard].Server().StateDump()
	for r := 0; r < R; r++ {
		recs, err := regionRecords(dirs, promotedDir, r, d.KillShard)
		if err != nil {
			return nil, err
		}
		offers, err := journalOffers(recs)
		if err != nil {
			return nil, err
		}
		rep.JournalOffers += len(offers)
		want := append([]ackRec(nil), ackedBy[r]...)
		sortAcks(offers)
		sortAcks(want)
		if len(offers) != len(want) {
			return nil, fmt.Errorf("federation: shard %d journals %d offers, clients hold %d acks — exactly-once broken",
				r, len(offers), len(want))
		}
		for k := range offers {
			if offers[k] != want[k] {
				return nil, fmt.Errorf("federation: shard %d decision %d: journal has %+v, acks have %+v",
					r, k, offers[k], want[k])
			}
		}
	}
	if err := invariant.CheckFailover(leaders[d.KillShard].Problem(), d.Count,
		engineOptions(d.regionConfig(d.KillShard)), dirs[d.KillShard], promotedDir, live); err != nil {
		return nil, err
	}

	// Verification replay: single-threaded, fixed region order, trace sink
	// attached only now — the byte-reproducible artifact.
	events, err := d.replayTrace(dirs, promotedDir)
	if err != nil {
		return nil, err
	}
	rep.TraceEvents = len(events)
	return rep, nil
}

// firstOwnedQuery returns the lowest query ID the shard owns (the drill's
// stale-term probe needs one that would otherwise be priced locally).
func firstOwnedQuery(p *placement.Problem, shard, shards int) workload.QueryID {
	for q := range p.Queries {
		if OwnerOfQuery(p, workload.QueryID(q), shards) == shard {
			return workload.QueryID(q)
		}
	}
	return 0
}

// regionRecords loads shard r's full durable record stream: one directory
// for a survivor, old ++ promoted for the killed shard (Load drops the torn
// tail of the kill, exactly as recovery would).
func regionRecords(dirs []string, promotedDir string, r, killShard int) ([][]byte, error) {
	st, err := journal.Load(dirs[r])
	if err != nil {
		return nil, err
	}
	recs := st.Records
	if r == killShard {
		newSt, err := journal.Load(promotedDir)
		if err != nil {
			return nil, err
		}
		merged := make([][]byte, 0, len(recs)+len(newSt.Records))
		merged = append(merged, recs...)
		merged = append(merged, newSt.Records...)
		recs = merged
	}
	return recs, nil
}

// journalOffers extracts the (query, at) identity of every offer record.
func journalOffers(recs [][]byte) ([]ackRec, error) {
	var out []ackRec
	for _, raw := range recs {
		var rec online.JournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("federation: decode journal record: %w", err)
		}
		if rec.Kind == "offer" {
			out = append(out, ackRec{Query: rec.Query, At: rec.At})
		}
	}
	return out, nil
}

// replayTrace replays every region's durable history through a fresh engine
// with the trace sink attached and checks the trace against the
// first-principles checker. Regions replay in shard order with the trace
// counters reset first, so two identical drills produce byte-identical
// traces.
func (d DrillConfig) replayTrace(dirs []string, promotedDir string) ([]instrument.TraceEvent, error) {
	instrument.ResetTrace()
	sink := &memSink{}
	instrument.SetTraceSink(sink)
	defer instrument.ResetTrace()
	var all []instrument.TraceEvent
	for r := 0; r < d.Regions; r++ {
		recs, err := regionRecords(dirs, promotedDir, r, d.KillShard)
		if err != nil {
			return nil, err
		}
		cfg := d.regionConfig(r)
		p, err := server.BuildInstance(cfg.Instance)
		if err != nil {
			return nil, err
		}
		sink.events = sink.events[:0]
		eng, err := online.Recover(p, cfg.ExpectedArrivals, engineOptions(cfg), &journal.State{Records: recs})
		if err != nil {
			return nil, fmt.Errorf("federation: verification replay of shard %d: %w", r, err)
		}
		eng.EmitEnd()
		if vs := invariant.CheckTrace(p, sink.events, invariant.TraceOptions{Online: true}); len(vs) != 0 {
			return nil, fmt.Errorf("federation: shard %d trace violations: %v", r, vs)
		}
		all = append(all, sink.events...)
	}
	if d.TraceOut != "" {
		f, err := os.Create(d.TraceOut)
		if err != nil {
			return nil, err
		}
		out := instrument.NewJSONLSink(f)
		for i := range all {
			out.Emit(&all[i])
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return all, nil
}
