// Package online extends the paper's proactive (offline) placement to the
// dynamic setting its §2.4 gestures at: queries arrive over time, hold their
// computing allocation only while executing, and must be admitted or
// rejected irrevocably on arrival. Replicas are still placed proactively —
// either by the offline coverage phase over a forecast workload, or lazily
// up to the K bound — and the admission decision reuses the same dual
// prices as internal/core, evaluated against the *instantaneous* load.
//
// This is the classic online primal-dual packing setting, where the
// exponential capacity price θ(u) = (c^u − 1)/(c − 1) with c = 1 + T yields
// the known O(log T) competitiveness for packing. T is NewEngine's
// expectedArrivals argument and nothing else: the base is not an option
// (the price-base ablation sweeps core.Options on the offline algorithm).
package online

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"edgerep/internal/cluster"
	"edgerep/internal/consistency"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Arrival is one query arriving at a point in time. HoldSec is how long its
// allocation is held (the evaluation duration); zero means hold forever
// (degenerates to the offline capacity model).
type Arrival struct {
	Query   workload.QueryID
	AtSec   float64
	HoldSec float64
}

// Options tunes the online engine.
type Options struct {
	// Forecast, when non-nil, is the workload used to pre-place preferred
	// replica sites (the proactive phase run on a forecast instead of the
	// actual arrivals). Nil means fully lazy replication.
	Forecast []workload.Query
	// MaxUtilization rejects any admission that would push a node above
	// this fraction of capacity; zero means 1.0 (no headroom reserved).
	MaxUtilization float64
	// NoRepair disables failover repair: a crash evicts every query the
	// node was serving instead of re-replicating. The ablation baseline
	// the ext-chaos experiment compares repair against.
	NoRepair bool
	// Journal, when non-nil, makes the engine durable: every Offer, Crash,
	// and Restore is written to the WAL with its committed outcome before
	// the call returns, and is on disk once the next Engine.Commit returns
	// (durable.go; recover with online.Recover).
	Journal *journal.Journal
	// SnapshotEvery takes a full EngineState snapshot after every Nth
	// journaled record, bounding replay length; zero means WAL-only.
	SnapshotEvery int
}

// delayPriceWeight scales the deadline-slack term w·size·(delay/deadline)
// of a candidate's price, in admission and in failover repair alike.
const delayPriceWeight float64 = 0.15

func (o Options) maxUtil() float64 {
	if o.MaxUtilization > 0 {
		return o.MaxUtilization
	}
	return 1.0
}

// Decision records the outcome for one arrival.
type Decision struct {
	Query    workload.QueryID
	Admitted bool
	// Assignments is per-demand, set when admitted.
	Assignments []placement.Assignment
}

// Result summarizes an online run.
type Result struct {
	Decisions []Decision
	// VolumeAdmitted is the objective achieved online.
	VolumeAdmitted float64
	Admitted       int
	Rejected       int
	// PeakUtilization is the highest instantaneous node utilization seen.
	PeakUtilization float64
	// Evicted counts previously admitted queries given up after a node
	// crash left them unservable (failover.go); their volume has already
	// been subtracted from VolumeAdmitted.
	Evicted int
}

// release is a scheduled capacity release. Query and dataset identify the
// allocation's owner so failover can move or drop in-flight holds when the
// node crashes.
type release struct {
	at      float64
	node    graph.NodeID
	amt     float64
	query   workload.QueryID
	dataset workload.DatasetID
}

// compare orders releases by expiry, then node, query and dataset. It is the
// engine's only ordering of releases — the heap pops by it, failover gives
// back what a crash or an eviction removed by it, StateDump lists by it — and
// it reads nothing but the releases' contents, so none of those depends on
// how the heap happens to be laid out: an engine whose heap was rebuilt from
// a snapshot subtracts tied expiries from a node's load in the same order as
// one whose heap grew push by push, and float subtraction does not commute.
// Releases it calls equal are interchangeable: amt is a function of (query,
// dataset).
func (r release) compare(o release) int {
	// Expiries are never NaN, and almost always decide.
	if r.at != o.at {
		if r.at < o.at {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(r.node, o.node); c != 0 {
		return c
	}
	if c := cmp.Compare(r.query, o.query); c != 0 {
		return c
	}
	return cmp.Compare(r.dataset, o.dataset)
}

// releaseHeap is a binary min-heap of releases under release.compare. Typed
// rather than container/heap, whose interface{} Push and Pop each box the
// 48-byte release: two allocations per assignment on a path whose pricing
// makes none.
type releaseHeap []release

func (h *releaseHeap) push(r release) {
	*h = append(*h, r)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest release; the heap must not be empty.
func (h *releaseHeap) pop() release {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	*h = old[:n]
	h.down(0)
	return old[n]
}

// extract removes every release that match selects and returns them in
// compare order.
func (h *releaseHeap) extract(match func(release) bool) []release {
	var out []release
	kept := (*h)[:0]
	for _, r := range *h {
		if match(r) {
			out = append(out, r)
		} else {
			kept = append(kept, r)
		}
	}
	*h = kept
	h.init()
	slices.SortFunc(out, release.compare)
	return out
}

// init establishes heap order over an arbitrary slice.
func (h *releaseHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h releaseHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if h[j].compare(h[i]) >= 0 {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h releaseHeap) down(i int) {
	for {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].compare(h[j]) < 0 {
			j = r
		}
		if h[j].compare(h[i]) >= 0 {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Engine processes arrivals one at a time.
type Engine struct {
	p    *placement.Problem
	opt  Options
	base float64

	// used is the sharded atomic capacity ledger (capshard.go); all
	// mutations go through setUsed/addUsed so the θ cache stays coherent.
	used     *capLedger
	releases releaseHeap
	now      float64

	// thetaVal/thetaFresh cache θ(v) between load changes: theta is the
	// only math.Pow on the admission hot path, and one offer can price the
	// same node once per demand.
	thetaVal   []float64
	thetaFresh []bool

	// fast holds the precomputed admission tables (fastpath.go), built once
	// by NewEngine and never nil afterwards.
	fast *fastPath

	sol  *placement.Solution
	res  Result
	peak float64

	// preferredSites are the forecast-derived proactive sites; replicas at
	// a preferred site open at zero µ price.
	preferredSites map[workload.DatasetID]map[graph.NodeID]bool

	// traceRun identifies this engine's span in emitted trace events
	// (trace.go).
	traceRun int64

	// live tracks crashed nodes (failover.go); nil until the first crash,
	// so fault-free runs take zero extra branches per candidate beyond one
	// nil check.
	live *cluster.Liveness
	// cons, when attached, accounts re-replication traffic for repairs.
	cons *consistency.Manager

	// jn and snapEvery make the engine durable (durable.go); replaying is
	// set while Recover drives the input paths from the journal so they do
	// not re-journal themselves.
	jn        *journal.Journal
	snapEvery int
	replaying bool

	// stages, when attached, is the serving layer's in-progress latency
	// timeline for the arrival currently being offered (the epoch loop is
	// single-writer, so a plain pointer suffices); emitAdmit/emitReject copy
	// the prefix known at decision time into the trace event's StageNs while
	// attribution is active. lastJournalNs records the duration of the last
	// Offer's journal write (marshal + write(2)), measured via the sanctioned
	// monotonic clock only while attribution is active.
	stages        *instrument.StageTimeline
	lastJournalNs int64
	// lastLookupNs records the last Offer's epoch-fence duration (the
	// fast-path staleness check plus any mirror refresh), zero unless
	// attribution was active.
	lastLookupNs int64
}

// NewEngine builds an online engine over a placement problem. The problem's
// query list is the universe arrivals refer into; replica bookkeeping and
// the K bound come from the problem.
func NewEngine(p *placement.Problem, expectedArrivals int, opt Options) *Engine {
	top := p.Cloud.Topology()
	e := &Engine{
		p:          p,
		opt:        opt,
		base:       1 + float64(expectedArrivals),
		used:       newCapLedger(top),
		thetaVal:   make([]float64, top.Graph.NumNodes()),
		thetaFresh: make([]bool, top.Graph.NumNodes()),
		sol:        placement.NewSolution(),
		jn:         opt.Journal,
		snapEvery:  opt.SnapshotEvery,
	}
	if opt.Forecast != nil {
		e.prePlace(opt.Forecast)
	}
	// Tables are built after prePlace: the preferred-site set they bake in
	// is frozen from here on.
	e.fast = newFastPath(e)
	e.beginTrace()
	return e
}

// prePlace derives preferred sites from the forecast with the same
// capacity-capped volume-weighted maximum-coverage rule as the offline
// proactive phase (internal/core); replicas still materialize lazily.
func (e *Engine) prePlace(forecast []workload.Query) {
	type demandRef struct {
		qi, di int
		need   float64
	}
	perDataset := make(map[workload.DatasetID][]demandRef)
	for qi := range forecast {
		q := &forecast[qi]
		for di, dm := range q.Demands {
			need := e.p.Datasets[dm.Dataset].SizeGB * q.ComputePerGB
			perDataset[dm.Dataset] = append(perDataset[dm.Dataset], demandRef{qi, di, need})
		}
	}
	feasible := func(d demandRef, v graph.NodeID) bool {
		q := &forecast[d.qi]
		return e.evalDelayForecast(q, q.Demands[d.di], v) <= q.DeadlineSec
	}
	claimed := make(map[graph.NodeID]float64)
	e.preferredSites = make(map[workload.DatasetID]map[graph.NodeID]bool)
	for n := range e.p.Datasets {
		ds := workload.DatasetID(n)
		demands := perDataset[ds]
		if len(demands) == 0 {
			continue
		}
		covered := make([]bool, len(demands))
		for slot := 0; slot < e.p.MaxReplicas; slot++ {
			var bestNode graph.NodeID = -1
			bestEff := 0.0
			for _, v := range e.p.Cloud.ComputeNodes() {
				if e.preferredSites[ds][v] {
					continue
				}
				cover := 0.0
				for i, d := range demands {
					if !covered[i] && feasible(d, v) {
						cover += d.need
					}
				}
				if cover <= 0 {
					continue
				}
				eff := math.Min(cover, e.p.Cloud.Capacity(v)-claimed[v])
				if eff > bestEff {
					bestNode, bestEff = v, eff
				}
			}
			if bestNode == -1 || bestEff <= 0 {
				break
			}
			if e.preferredSites[ds] == nil {
				e.preferredSites[ds] = make(map[graph.NodeID]bool)
			}
			e.preferredSites[ds][bestNode] = true
			budget := e.p.Cloud.Capacity(bestNode) - claimed[bestNode]
			marked := 0.0
			for i, d := range demands {
				if covered[i] || !feasible(d, bestNode) {
					continue
				}
				if marked+d.need > budget && marked > 0 {
					break
				}
				covered[i] = true
				marked += d.need
			}
			claimed[bestNode] += marked
		}
	}
}

// evalDelayForecast evaluates the model delay for a forecast query that may
// not be part of the problem's query list.
func (e *Engine) evalDelayForecast(q *workload.Query, dm workload.Demand, v graph.NodeID) float64 {
	size := e.p.Datasets[dm.Dataset].SizeGB
	proc := size * e.p.Cloud.ProcDelayPerGB(v)
	trans := size * dm.Selectivity * e.p.Cloud.TransferDelayPerGB(v, q.Home)
	return proc + trans
}

// theta prices node v at the current instantaneous utilization. The value
// is cached until v's allocation changes (setUsed/addUsed invalidate), so
// pricing many candidates between load changes pays one math.Pow per node;
// the cached value is the bit-exact result of the same expression.
func (e *Engine) theta(v graph.NodeID) float64 {
	if e.thetaFresh[v] {
		return e.thetaVal[v]
	}
	capGHz := e.p.Cloud.Capacity(v)
	t := math.Inf(1)
	if capGHz > 0 {
		u := e.usedGHz(v) / capGHz
		t = (math.Pow(e.base, u) - 1) / (e.base - 1)
	}
	e.thetaVal[v] = t
	e.thetaFresh[v] = true
	return t
}

// usedGHz reads node v's instantaneous allocation from the ledger.
func (e *Engine) usedGHz(v graph.NodeID) float64 { return e.used.get(v) }

// setUsed overwrites node v's allocation and invalidates its θ cache entry.
// Every used-mutation in the engine funnels through setUsed/addUsed — that
// centralization is what keeps the cached prices coherent with the ledger.
func (e *Engine) setUsed(v graph.NodeID, ghz float64) {
	e.used.set(v, ghz)
	e.thetaFresh[v] = false
}

// addUsed adjusts node v's allocation by delta and returns the new value.
func (e *Engine) addUsed(v graph.NodeID, delta float64) float64 {
	n := e.used.get(v) + delta
	e.used.set(v, n)
	e.thetaFresh[v] = false
	return n
}

// resetUsed zeroes the whole ledger (bulk state load).
func (e *Engine) resetUsed() {
	e.used.reset()
	for i := range e.thetaFresh {
		e.thetaFresh[i] = false
	}
}

// Offer processes one arrival and returns its decision. Arrivals must be
// offered in non-decreasing time order.
func (e *Engine) Offer(a Arrival) (Decision, error) {
	if int(a.Query) < 0 || int(a.Query) >= len(e.p.Queries) {
		return Decision{}, fmt.Errorf("online: unknown query %d", a.Query)
	}
	if a.AtSec < e.now {
		return Decision{}, fmt.Errorf("online: arrival at %.3fs before current time %.3fs", a.AtSec, e.now)
	}
	e.now = a.AtSec
	e.drainReleases()

	q := &e.p.Queries[a.Query]
	// Plan each demand against instantaneous load; all-or-nothing. The
	// lookup stage is the fast path's epoch fence — the staleness check on
	// the precomputed tables' liveness mirror plus any refresh an
	// invalidation forced — timed only while attribution is active, like
	// the journal stages.
	e.lastLookupNs = 0
	if instrument.AttributionActive() {
		lt := instrument.Mono()
		e.fast.refresh(e)
		e.lastLookupNs = int64(instrument.Mono() - lt)
	}
	admitted, as := e.planFast(a.Query)

	dec := Decision{Query: a.Query, Admitted: admitted}
	if admitted {
		dec.Assignments = as
		for _, asg := range as {
			need := e.p.ComputeNeed(a.Query, asg.Dataset)
			if u := e.addUsed(asg.Node, need) / e.p.Cloud.Capacity(asg.Node); u > e.peak {
				e.peak = u
			}
			e.sol.AddReplica(asg.Dataset, asg.Node)
			// Hold-forever allocations (HoldSec 0) get a release at +Inf:
			// it never drains, but failover can still see the hold is live
			// and move it with full capacity accounting.
			expiry := math.Inf(1)
			if a.HoldSec > 0 {
				expiry = a.AtSec + a.HoldSec
			}
			e.releases.push(release{at: expiry, node: asg.Node, amt: need, query: a.Query, dataset: asg.Dataset})
		}
		e.sol.Admit(a.Query, as)
		e.res.Admitted++
		e.res.VolumeAdmitted += q.DemandedVolume(e.p.Datasets)
		e.emitAdmit(a, as)
	} else {
		e.res.Rejected++
		e.emitReject(a)
	}
	e.res.Decisions = append(e.res.Decisions, dec)
	if !instrument.AttributionActive() {
		return dec, e.journalOffer(a, dec)
	}
	jStart := instrument.Mono()
	err := e.journalOffer(a, dec)
	e.lastJournalNs = int64(instrument.Mono() - jStart)
	return dec, err
}

// AttachStages points the engine at the serving layer's in-progress stage
// timeline for subsequent Offers (nil detaches). While attribution is
// active, admit/reject trace events carry a copy of the timeline's known
// prefix, so a traced decision links to its critical path.
func (e *Engine) AttachStages(t *instrument.StageTimeline) { e.stages = t }

// LastOfferJournalNs returns the journal-write duration of the most recent
// Offer — zero unless attribution was active during the call. The fsync is
// not in it: that is the epoch's Commit, which the serving layer times.
func (e *Engine) LastOfferJournalNs() int64 { return e.lastJournalNs }

// LastOfferLookupNs returns the duration of the most recent Offer's table
// lookup fence — zero unless attribution was active.
func (e *Engine) LastOfferLookupNs() int64 { return e.lastLookupNs }

// drainReleases gives back every allocation whose hold expired by e.now.
func (e *Engine) drainReleases() {
	for len(e.releases) > 0 && e.releases[0].at <= e.now {
		e.giveBack(e.releases.pop())
	}
}

// giveBack returns one release's allocation to its node.
func (e *Engine) giveBack(r release) {
	if e.addUsed(r.node, -r.amt) < 0 {
		e.setUsed(r.node, 0)
	}
}

// Result returns the accumulated run summary.
func (e *Engine) Result() Result {
	r := e.res
	r.PeakUtilization = e.peak
	return r
}

// Solution returns the replica layout and admissions so far. With
// HoldSec > 0 arrivals the capacity constraint is temporal, so the offline
// validator's capacity check does not apply; replica and deadline
// constraints still hold.
func (e *Engine) Solution() *placement.Solution { return e.sol }
