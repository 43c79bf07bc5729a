// Package server is the streaming-admission core of the always-on daemon
// (cmd/edgerepd). Queries arrive continuously through Admit (or its HTTP
// binding, see http.go), are coalesced into micro-epochs by group commit —
// an epoch is whatever is already queued when the previous epoch's commit
// returns, up to EpochMaxQueries, so nobody waits for company — and are
// priced one at a time against
// the online engine's incrementally maintained dual state (internal/online:
// the exponential capacity price θ(u) over instantaneous load); no ascent is
// ever re-run per batch. Every decision is answered with admit/reject, the
// placement on admit, and a typed rejection reason (instrument.Reason) on
// reject.
//
// Durability and observability are inherited rather than reinvented: the
// engine journals every offer with its committed outcome and the epoch loop
// commits the journal — one fsync per micro-epoch — before any response of
// that epoch leaves the server (internal/journal; restart with
// online.Recover is byte-identical), every decision is a typed trace event
// replayable by invariant.CheckTrace, and the per-epoch/per-decision metrics
// registered below surface on /metrics next to internal/ops' pprof handlers.
//
// Ordering contract: requests are processed in enqueue order (one FIFO
// channel, one epoch loop), so a single-submitter stream with deterministic
// arrival times produces a byte-identical journal and trace no matter how
// the micro-epochs happen to cut — batching is a latency/throughput knob,
// never a semantic one. See OPERATIONS.md for the operator's view.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Serving metrics (see ARCHITECTURE.md, "Serving"): decision counters, the
// wall-clock admission latency distribution, and micro-epoch shape.
var (
	statAdmitted = instrument.NewCounter("server.admitted")
	statRejected = instrument.NewCounter("server.rejected")
	statEpochs   = instrument.NewCounter("server.epochs")
	statOffers   = instrument.NewCounter("server.offers")
	// statTermFenced counts admissions rejected at the door for carrying a
	// stale leadership term (federation failover fencing, see CheckTerm).
	statTermFenced = instrument.NewCounter("server.term_fenced")
	// statForwarded counts requests routed to another region's controller
	// because this shard does not own the query's home cloudlet.
	statForwarded = instrument.NewCounter("server.forwarded")

	histAdmitLatency = instrument.NewHistogram("server.admit_latency_seconds",
		0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)
	histEpochQueries = instrument.NewHistogram("server.epoch_queries",
		1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
	gaugeEpochOccupancy = instrument.NewGauge("server.epoch_occupancy")

	// Per-stage admission-latency histograms (latency attribution; filled
	// only while instrument.AttributionActive). Indexed via stageHists in
	// instrument.Stage order — the seven stages partition enqueue→response.
	histStageQueue    = instrument.NewHistogram("server.stage_queue_seconds", instrument.DefaultStageBuckets...)
	histStageCoalesce = instrument.NewHistogram("server.stage_coalesce_seconds", instrument.DefaultStageBuckets...)
	histStageLookup   = instrument.NewHistogram("server.stage_lookup_seconds", instrument.DefaultStageBuckets...)
	histStagePricing  = instrument.NewHistogram("server.stage_pricing_seconds", instrument.DefaultStageBuckets...)
	histStageJournal  = instrument.NewHistogram("server.stage_journal_seconds", instrument.DefaultStageBuckets...)
	histStageFsync    = instrument.NewHistogram("server.stage_fsync_seconds", instrument.DefaultStageBuckets...)
	histStageAck      = instrument.NewHistogram("server.stage_ack_seconds", instrument.DefaultStageBuckets...)

	stageHists = [instrument.NumStages]*instrument.Histogram{
		instrument.StageQueue:    histStageQueue,
		instrument.StageCoalesce: histStageCoalesce,
		instrument.StageLookup:   histStageLookup,
		instrument.StagePricing:  histStagePricing,
		instrument.StageJournal:  histStageJournal,
		instrument.StageFsync:    histStageFsync,
		instrument.StageAck:      histStageAck,
	}
)

// ErrDraining is returned to admissions that arrive after graceful shutdown
// began: the daemon finishes the queries already enqueued (the in-flight
// micro-epoch) but accepts no new ones.
var ErrDraining = errors.New("server: draining, admission closed")

// Config tunes the micro-epoch collector. There is no wait bound: an epoch
// closes as soon as the queue is empty (see run).
type Config struct {
	// EpochMaxQueries bounds a micro-epoch's size; 0 means 256.
	EpochMaxQueries int
	// Clock supplies the model time stamped on arrivals that do not carry
	// their own AtSec. Nil means a monotonic wall clock anchored at the
	// engine's recovered model time, so holds expire in real time. A
	// deterministic driver (selfdrive, tests) passes a constant-zero clock
	// and explicit AtSec values instead.
	Clock func() float64
}

func (c Config) epochMax() int {
	if c.EpochMaxQueries > 0 {
		return c.EpochMaxQueries
	}
	return 256
}

// queueDepth bounds the admission queue in entries — a single offer or a
// whole POST's locally owned offers each take one: a send blocks when it is
// full, giving natural backpressure.
const queueDepth = 4096

// AdmitRequest is one query offered to the daemon.
type AdmitRequest struct {
	// Query indexes the instance's query list (the universe the daemon was
	// started with).
	Query workload.QueryID `json:"query"`
	// AtSec is the optional model arrival time; it is clamped up to the
	// server clock and the engine's current time, so a stale or zero AtSec
	// simply means "now".
	AtSec float64 `json:"at_sec,omitempty"`
	// HoldSec is how long the admitted allocation is held; 0 means forever.
	HoldSec float64 `json:"hold_sec,omitempty"`
	// Term is the leadership term the client believes it is talking to; 0
	// opts out of fencing. A non-zero Term that does not match the server's
	// current term is fenced with ReasonLeaderFailover before anything is
	// enqueued or journaled — the in-flight offer of a dead leader can never
	// double-admit through its successor.
	Term int64 `json:"term,omitempty"`
}

// Assignment is one demand of an admitted query served from a node.
type Assignment struct {
	Dataset workload.DatasetID `json:"dataset"`
	Node    graph.NodeID       `json:"node"`
}

// AdmitResponse is the daemon's decision for one request. Reason, Dataset,
// and Node carry the typed rejection attribution on reject (-1 where not
// applicable), exactly the classification invariant.CheckTrace replays.
type AdmitResponse struct {
	Query    workload.QueryID `json:"query"`
	Admitted bool             `json:"admitted"`
	// AtSec is the effective model arrival time the decision was priced at.
	AtSec float64 `json:"at_sec"`
	// Epoch numbers the micro-epoch that carried the decision.
	Epoch       int64             `json:"epoch"`
	Assignments []Assignment      `json:"assignments,omitempty"`
	Reason      instrument.Reason `json:"reason,omitempty"`
	Dataset     int64             `json:"dataset"`
	Node        int64             `json:"node"`
	// StageNs is the decision's critical-path breakdown in
	// instrument.StageNames order (queue/coalesce/lookup/pricing/journal/
	// fsync/ack nanoseconds), present only while latency attribution is
	// active. Its sum is the server-side enqueue→response latency of this
	// decision.
	StageNs []int64 `json:"stage_ns,omitempty"`
	// Term is the leadership term the decision was priced under (0 outside a
	// federation). On a term-fenced rejection it carries the server's
	// *current* term, so the client can re-offer correctly fenced.
	Term int64 `json:"term,omitempty"`
}

type result struct {
	resp AdmitResponse
	err  error
}

type pending struct {
	req AdmitRequest
	enq time.Time
	// resp carries the decision of an offer queued alone (enqueue).
	resp chan result
	// post is set instead for an offer of a POST: its decision is stored in
	// post.replies[idx].
	post *postEntry
	idx  int
	// enqMono is the sanctioned-monotonic-clock enqueue stamp, taken instead
	// of enq while attribution is active (queue stage = batch close−enqMono).
	enqMono time.Duration
	// rest is the remainder of a multi-offer POST, in request order, when
	// this pending is its head: the whole POST is one queue entry, which the
	// epoch loop unpacks (see enqueuePost).
	rest []pending
}

// postEntry is one POST's locally owned offers: their pendings, queued as one
// entry, and a reply slot each. The epoch loop stores every decision in its
// slot and sends on done once, after the last store; the handler reads
// replies after that receive. A postEntry is reused across POSTs (the handler
// pools it), so a POST allocates no channel and no slice of its own.
type postEntry struct {
	pds     []pending
	replies []result
	// left counts the decisions not yet stored; once the post is queued only
	// the epoch loop touches it.
	left int
	done chan struct{}
}

// Server owns the cluster state (one online engine) and serves admission.
type Server struct {
	cfg Config
	p   *placement.Problem

	// mu guards the engine and epoch bookkeeping; the epoch loop holds it
	// while pricing a batch, read-only endpoints (StateDump, Result) take it
	// between batches.
	mu  sync.Mutex
	eng *online.Engine

	// sendMu fences enqueue against Drain: senders hold it shared while
	// pushing onto reqs, Drain takes it exclusively to flip draining and
	// close the channel with no send in flight.
	sendMu   sync.RWMutex
	draining bool

	reqs chan *pending
	done chan struct{}

	epochs int64
	offers int64

	// crashAfter/crashFn inject a deterministic mid-serving fault: after the
	// Nth offer is written to the journal, fn runs with the epoch lock held
	// (it tears the WAL tail and kills the process in the chaos drill).
	crashAfter int64
	crashFn    func()

	// stageBatch/admitBatch buffer the attributed per-decision histogram
	// observations locally and flush once per epoch: only the epoch loop
	// touches them, so the hot path pays no per-observation atomics.
	stageBatch [instrument.NumStages]*instrument.HistogramBatch
	admitBatch *instrument.HistogramBatch
	// sloBatch buffers SLO observations the same way; it is rebuilt when a
	// different tracker is attached (sloOwner remembers whose batch it is).
	sloBatch *instrument.SLOBatch
	sloOwner *instrument.SLOTracker

	// slots is the priced-but-undelivered scratch between processEpoch's
	// two phases, reused across epochs (only the epoch loop touches it).
	slots []epochSlot

	// term is the monotonic leadership term this server admits under (0 =
	// unfederated). Atomic: the HTTP fencing check and the epoch loop's
	// response stamping read it without the epoch lock.
	term atomic.Int64

	// router, when set, forwards admissions for queries this shard does not
	// own to the owning region's controller (see forward.go). Atomic so a
	// failover drill can swap peer tables on a live server.
	router atomic.Pointer[Router]

	start time.Time
	base  float64
}

// New starts a server over a problem and a ready engine (fresh from
// online.NewEngine or recovered via online.Recover — the caller owns journal
// and trace wiring). The epoch loop starts immediately.
func New(p *placement.Problem, eng *online.Engine, cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		p:     p,
		eng:   eng,
		reqs:  make(chan *pending, queueDepth),
		done:  make(chan struct{}),
		start: time.Now(),
		base:  eng.Now(),
	}
	for i := range s.stageBatch {
		s.stageBatch[i] = stageHists[i].NewBatch()
	}
	s.admitBatch = histAdmitLatency.NewBatch()
	go s.run()
	return s
}

// CrashAfter arms the deterministic fault: after n offers have been decided
// (and written to the journal, their epoch not yet committed), fn is invoked
// from the epoch loop. Call before traffic.
func (s *Server) CrashAfter(n int64, fn func()) {
	s.crashAfter = n
	s.crashFn = fn
}

// clock returns the current model time.
func (s *Server) clock() float64 {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return s.base + time.Since(s.start).Seconds()
}

// enqueue pushes one request onto the admission queue and returns the
// channel its decision will arrive on. It blocks when the queue is full.
func (s *Server) enqueue(req AdmitRequest) (<-chan result, error) {
	if err := s.checkQuery(req.Query); err != nil {
		return nil, err
	}
	pd := &pending{req: req, resp: make(chan result, 1)}
	pd.stamp()
	if err := s.push(pd); err != nil {
		return nil, err
	}
	return pd.resp, nil
}

// enqueuePost pushes a POST's offers (at least one) onto the admission queue
// as one entry, in request order, filling p; after a receive on p.done,
// p.replies holds their decisions in the same order. Every query is checked
// before anything is enqueued, so a POST is queued whole or not at all. Being
// one entry, a POST is never interleaved with another sender's offers and
// never cut into more epochs than EpochMaxQueries forces.
func (s *Server) enqueuePost(p *postEntry, reqs []AdmitRequest) error {
	for _, req := range reqs {
		if err := s.checkQuery(req.Query); err != nil {
			return err
		}
	}
	if p.done == nil {
		p.done = make(chan struct{}, 1)
	}
	p.pds = slices.Grow(p.pds[:0], len(reqs))[:len(reqs)]
	p.replies = slices.Grow(p.replies[:0], len(reqs))[:len(reqs)]
	p.left = len(reqs)
	// One enqueue stamp serves the whole POST: its offers arrive together.
	var head pending
	head.stamp()
	for i := range p.pds {
		p.pds[i] = pending{req: reqs[i], enq: head.enq, enqMono: head.enqMono, post: p, idx: i}
	}
	p.pds[0].rest = p.pds[1:]
	return s.push(&p.pds[0])
}

// checkQuery refuses a query ID outside the instance's query list.
func (s *Server) checkQuery(q workload.QueryID) error {
	if int(q) < 0 || int(q) >= len(s.p.Queries) {
		return fmt.Errorf("server: unknown query %d", q)
	}
	return nil
}

// stamp takes the enqueue stamp: one clock read, the monotonic stamp when
// attribution is on (every interval it needs is monotonic-to-monotonic),
// the wall stamp otherwise (the plain latency observation's only input).
func (pd *pending) stamp() {
	if instrument.AttributionActive() {
		pd.enqMono = instrument.Mono()
	} else {
		pd.enq = time.Now()
	}
}

// push sends one queue entry, unless the server is draining. It blocks when
// the queue is full.
func (s *Server) push(pd *pending) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	s.reqs <- pd
	return nil
}

// Admit offers one query and blocks until its micro-epoch is priced.
func (s *Server) Admit(req AdmitRequest) (AdmitResponse, error) {
	ch, err := s.enqueue(req)
	if err != nil {
		return AdmitResponse{}, err
	}
	r := <-ch
	return r.resp, r.err
}

// run is the epoch loop, plain group commit: block for the first queue
// entry, then take whatever is already queued — without waiting — up to
// EpochMaxQueries offers, and price. There is no timer. The same loop
// prices, commits and delivers, so the previous epoch's commit has always
// returned when the next epoch is collected: offers that arrive during an
// fsync form the next epoch, and a lone offer pays no wait for company. A
// POST entry is unpacked in request order; the part past the size bound is
// carried, still in order, to the head of the next epoch.
func (s *Server) run() {
	defer close(s.done)
	max := s.cfg.epochMax()
	batch := make([]*pending, 0, max)
	var carry []pending
	for {
		batch = batch[:0]
		if len(carry) == 0 {
			pd, ok := <-s.reqs
			if !ok {
				return
			}
			batch, carry = append(batch, pd), pd.rest
		}
	collect:
		for {
			n := min(max-len(batch), len(carry))
			for i := range carry[:n] {
				batch = append(batch, &carry[i])
			}
			carry = carry[n:]
			if len(carry) > 0 || len(batch) == max {
				break
			}
			select {
			case pd, ok := <-s.reqs:
				if !ok {
					break collect
				}
				batch, carry = append(batch, pd), pd.rest
			default:
				break collect
			}
		}
		s.processEpoch(batch)
	}
}

// epochSlot is one decision's priced-but-undelivered state between the two
// phases of processEpoch.
type epochSlot struct {
	resp     AdmitResponse
	err      error
	tl       instrument.StageTimeline
	t1       time.Duration
	id       int64
	admitted bool
}

// processEpoch prices one micro-epoch against the engine's dual state and
// answers every waiter, in two phases. Phase 1 holds the epoch lock and is
// pure pricing: every decision is offered, classified, and journaled into a
// slot, in batch order. Phase 2 runs with the lock released and delivers
// the slots in the same order, stamping each decision's ack stage at its
// actual hand-off. Splitting delivery out of the locked section replaced
// the old Gosched-every-32 yield hack: waiters are now answered while the
// engine lock is free, so the pricing loop can't convoy acknowledged
// responses behind the rest of the batch's pricing on one processor
// (TestAckConvoyRegression pins GOMAXPROCS=1 and checks the attributed
// stage sums still track the client-observed end-to-end latency). Batch
// order — and therefore the deterministic journal and trace — is untouched.
//
// Group commit: phase 1 writes every decision's record and ends with exactly
// one engine Commit — one fsync for the whole epoch — before phase 2 lets any
// response out, which preserves the exactly-once direction: no ack without a
// durable record. If the commit fails, every waiter of the epoch gets the
// error and nobody is acked; the journal stays poisoned, so later epochs fail
// the same way until an operator restarts from the durable prefix.
//
// While latency attribution is active every decision gets a stage timeline:
// queue and coalesce split at the batch-close stamp taken once per epoch,
// lookup is the fast path's table fence, journal is the engine's measurement
// of its record write, pricing is the Offer duration net of fence and
// journal, fsync is the epoch's commit (shared by every member: each waited
// for all of it), and ack is the rest — own pricing end to commit start plus
// commit end to delivery — seven stages that exactly partition the
// enqueue→response interval on one clock (see instrument.StageTimeline).
func (s *Server) processEpoch(batch []*pending) {
	if len(batch) == 0 {
		return
	}
	attributed := instrument.AttributionActive()
	tr := instrument.CurrentSLOTracker()
	fr := instrument.CurrentFlightRecorder()
	if cap(s.slots) < len(batch) {
		s.slots = make([]epochSlot, len(batch))
	}
	slots := s.slots[:len(batch)]
	var tl instrument.StageTimeline
	var stageArena []int64
	// asgArena backs the epoch's responses' Assignments the way stageArena
	// backs their StageNs: a chunk is allocated when the last one is full,
	// never reused, so a reply keeps its assignments however long it lives.
	var asgArena []Assignment
	var batchClose, commitStart, commitEnd time.Duration

	// Phase 1: price, journal and commit under the epoch lock.
	s.mu.Lock()
	s.epochs++
	epoch := s.epochs
	term := s.term.Load()
	statEpochs.Inc()
	histEpochQueries.Observe(float64(len(batch)))
	gaugeEpochOccupancy.Set(float64(len(batch)) / float64(s.cfg.epochMax()))
	if tr != nil && s.sloOwner != tr {
		s.sloBatch, s.sloOwner = tr.NewBatch(), tr
	}
	if attributed {
		// The engine copies the timeline's known prefix (queue, coalesce)
		// onto the decision's trace event; detached when the phase is done.
		s.eng.AttachStages(&tl)
		// One arena allocation serves every response's StageNs this epoch
		// (full-slice expressions below keep the sub-slices append-safe), so
		// attribution costs one malloc per epoch, not one per decision.
		stageArena = make([]int64, 0, len(batch)*int(instrument.NumStages))
		// One stamp closes the epoch for every member: queue ends and
		// coalesce begins here for the whole batch. An epoch spans a couple
		// of milliseconds, so a shared stamp is well inside the stages'
		// useful precision and saves a clock read per decision.
		batchClose = instrument.Mono()
	}
	for i, pd := range batch {
		sl := &slots[i]
		*sl = epochSlot{}
		at := pd.req.AtSec
		if now := s.clock(); at < now {
			at = now
		}
		if floor := s.eng.Now(); at < floor {
			at = floor
		}
		var t0 time.Duration
		if attributed {
			t0 = instrument.Mono()
			tl = instrument.StageTimeline{}
			tl[instrument.StageQueue] = clampNs(int64(batchClose - pd.enqMono))
			tl[instrument.StageCoalesce] = clampNs(int64(t0 - batchClose))
		}
		dec, err := s.eng.Offer(online.Arrival{Query: pd.req.Query, AtSec: at, HoldSec: pd.req.HoldSec})
		if attributed {
			sl.t1 = instrument.Mono()
		}
		if err != nil {
			sl.err = err
			continue
		}
		sl.admitted = dec.Admitted
		sl.resp = AdmitResponse{
			Query:    pd.req.Query,
			Admitted: dec.Admitted,
			AtSec:    at,
			Epoch:    epoch,
			Dataset:  -1,
			Node:     -1,
			Term:     term,
		}
		if dec.Admitted {
			statAdmitted.Inc()
			if n := len(dec.Assignments); n > 0 {
				if cap(asgArena)-len(asgArena) < n {
					asgArena = make([]Assignment, 0, max(n, 2*len(batch)))
				}
				k := len(asgArena)
				for _, asg := range dec.Assignments {
					asgArena = append(asgArena, Assignment{Dataset: asg.Dataset, Node: asg.Node})
				}
				sl.resp.Assignments = asgArena[k:len(asgArena):len(asgArena)]
			}
		} else {
			statRejected.Inc()
			reason, ds, node := s.eng.ClassifyRejection(pd.req.Query)
			sl.resp.Reason = reason
			sl.resp.Dataset = int64(ds)
			sl.resp.Node = int64(node)
		}
		statOffers.Inc()
		s.offers++
		sl.id = s.offers
		if attributed {
			jNs := s.eng.LastOfferJournalNs()
			lookupNs := s.eng.LastOfferLookupNs()
			tl[instrument.StageJournal] = clampNs(jNs)
			tl[instrument.StageLookup] = clampNs(lookupNs)
			tl[instrument.StagePricing] = clampNs(int64(sl.t1-t0) - jNs - lookupNs)
			// Fsync and ack are stamped in phase 2, once the epoch's commit
			// and the delivery have happened; the arena slots are rewritten
			// there through the aliasing StageNs sub-slice.
			k := len(stageArena)
			stageArena = append(stageArena, tl[:]...)
			sl.resp.StageNs = stageArena[k:len(stageArena):len(stageArena)]
			sl.tl = tl
		}
		if s.crashAfter > 0 && s.offers == s.crashAfter && s.crashFn != nil {
			// The chaos fault fires with the decision journaled but its
			// epoch uncommitted and its response undelivered — exactly the
			// window the recovery drill must tolerate: journaled-but-unacked
			// replays identically. The client saw no ack, and a request
			// carries no id, so one it re-offers is admitted a second time
			// (TestReofferAfterCrashAdmitsTwice).
			if fr != nil {
				fr.Record(instrument.FlightEntry{Kind: instrument.EventChaos})
			}
			s.crashFn()
		}
	}
	if attributed {
		s.eng.AttachStages(nil)
		commitStart = instrument.Mono()
	}
	// The epoch's one durability barrier. It stays under the lock because the
	// journal is single-writer and Crash/Restore write to it too.
	commitErr := s.eng.Commit()
	if attributed {
		commitEnd = instrument.Mono()
	}
	s.mu.Unlock()

	// Phase 2: deliver in batch order with the engine lock free.
	commitNs := clampNs(int64(commitEnd - commitStart))
	for i := range slots {
		sl := &slots[i]
		pd := batch[i]
		// Fail closed on a failed commit: what this epoch decided may not
		// be on disk.
		res := result{err: commitErr}
		if commitErr == nil {
			res.err = sl.err
		}
		if res.err == nil {
			var e2e float64
			var end time.Duration
			if attributed {
				end = instrument.Mono()
				ack := clampNs(int64(commitStart-sl.t1)) + clampNs(int64(end-commitEnd))
				sl.tl[instrument.StageFsync] = commitNs
				sl.tl[instrument.StageAck] = ack
				sl.resp.StageNs[instrument.StageFsync] = commitNs
				sl.resp.StageNs[instrument.StageAck] = ack
				for j := range s.stageBatch {
					s.stageBatch[j].Observe(float64(sl.tl[j])*1e-9, sl.id)
				}
				// The attributed end-to-end observation is the stage sum — the
				// seven stages telescope back to enqueue→response on one clock.
				e2e = float64(sl.tl.TotalNs()) * 1e-9
				s.admitBatch.Observe(e2e, sl.id)
			} else if !pd.enq.IsZero() {
				e2e = time.Since(pd.enq).Seconds()
				histAdmitLatency.Observe(e2e)
			}
			if tr != nil {
				s.sloBatch.Observe(e2e, sl.admitted, sl.resp.Reason)
			}
			if fr != nil {
				kind := instrument.EventAdmit
				if !sl.admitted {
					kind = instrument.EventReject
				}
				var stages *instrument.StageTimeline
				if attributed {
					stages = &sl.tl
				}
				fr.RecordDecisionAt(kind, int64(pd.req.Query), epoch, sl.admitted, sl.resp.Reason, stages, int64(end))
			}
			res.resp = sl.resp
		}
		if p := pd.post; p != nil {
			// The store is the decision's ack to its POST; done, sent after
			// the POST's last store, hands the replies over. Nothing here
			// touches p or pd after that send: the handler reuses both.
			p.replies[pd.idx] = res
			if p.left--; p.left == 0 {
				p.done <- struct{}{}
			}
			continue
		}
		pd.resp <- res
	}
	if attributed {
		for i := range s.stageBatch {
			s.stageBatch[i].Flush()
		}
		s.admitBatch.Flush()
	}
	if tr != nil {
		s.sloBatch.Flush()
	}
}

// clampNs floors a stage duration at zero: clock-granularity jitter or an
// attribution toggle mid-flight can make a difference of stamps negative, and
// a timeline never reports negative time.
func clampNs(ns int64) int64 {
	if ns < 0 {
		return 0
	}
	return ns
}

// Drain begins graceful shutdown: new admissions fail with ErrDraining, the
// queries already enqueued are priced (the in-flight micro-epoch finishes),
// the trace span is closed, and the engine state is snapshotted to the
// journal (when one is attached) so a restart replays zero WAL records.
func (s *Server) Drain() error {
	s.sendMu.Lock()
	if s.draining {
		s.sendMu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	close(s.reqs)
	s.sendMu.Unlock()
	if fr := instrument.CurrentFlightRecorder(); fr != nil {
		fr.Record(instrument.FlightEntry{Kind: instrument.EventDrain})
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.EmitEnd()
	return s.eng.SnapshotNow()
}

// TermError reports an admission fenced for carrying a stale leadership
// term: the client believed it was talking to term Got, the server admits
// under Current. The client must re-offer with the current term (the offer
// was never enqueued, never priced, never journaled).
type TermError struct {
	Got     int64
	Current int64
}

func (e *TermError) Error() string {
	return fmt.Sprintf("server: term fenced: request term %d, serving term %d", e.Got, e.Current)
}

// SetTerm installs the leadership term this server admits under. Called once
// at startup (leader) or promotion (follower), before traffic.
func (s *Server) SetTerm(term int64) { s.term.Store(term) }

// Term returns the current leadership term (0 when unfederated).
func (s *Server) Term() int64 { return s.term.Load() }

// CheckTerm is the failover fence: a request carrying a non-zero term that
// does not match the server's current term gets a *TermError and MUST NOT be
// enqueued — it is an in-flight offer from before a leadership change, and
// pricing it could double-admit a query the new leader already answered. A
// zero request term opts out (unfederated clients, server-to-server
// forwarding hops). The termfence analyzer holds every /admit handler to
// calling this before anything reaches the engine.
func (s *Server) CheckTerm(reqTerm int64) error {
	if reqTerm == 0 {
		return nil
	}
	if cur := s.term.Load(); reqTerm != cur {
		statTermFenced.Inc()
		return &TermError{Got: reqTerm, Current: cur}
	}
	return nil
}

// Crash injects the failure of node v between epochs: it takes the epoch
// lock like a batch would, stamps the crash at the serving clock (floored
// at the engine's model time, like an arrival), and runs the engine's
// failover repair. The liveness generation bump it causes is what the fast
// path's epoch fence observes — the next offer refreshes its mirror before
// consulting any table, so no decision admits onto the crashed node through
// stale state (TestFastPathStaleTableFuzz races exactly this interleaving).
// The crash record is committed before Crash returns.
func (s *Server) Crash(v graph.NodeID) (online.CrashReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.clock()
	if floor := s.eng.Now(); at < floor {
		at = floor
	}
	rep, err := s.eng.Crash(at, v)
	if err != nil {
		return rep, err
	}
	return rep, s.eng.Commit()
}

// Restore marks a crashed node alive again, between epochs; its record is
// committed before Restore returns.
func (s *Server) Restore(v graph.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.Restore(v); err != nil {
		return err
	}
	return s.eng.Commit()
}

// FastPathStats reports the engine's fast-path table and fence counters.
// It deliberately does NOT take the epoch lock: the stats are atomics and
// immutable table sizes, so /state can observe the fast path mid-epoch.
func (s *Server) FastPathStats() online.FastPathStats {
	return s.eng.FastPathStats()
}

// StateDump returns the engine's canonical state (see online.EngineState),
// consistent with respect to epoch boundaries.
func (s *Server) StateDump() *online.EngineState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.StateDump()
}

// Result returns the engine's accumulated run summary.
func (s *Server) Result() online.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Result()
}

// Epochs returns how many micro-epochs have been priced.
func (s *Server) Epochs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs
}
