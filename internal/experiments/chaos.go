// The ext-chaos experiment: online admission under a deterministic cloudlet
// crash schedule, comparing fault-free operation, crash-with-failover-repair
// (internal/online Crash), and crash-with-eviction-only. Everything runs in
// model time — crashes are events on the same clock as arrivals — so tables
// and traces are bit-reproducible.
package experiments

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"edgerep/internal/consistency"
	"edgerep/internal/graph"
	"edgerep/internal/metrics"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/retry"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// CrashEvent is one scheduled cloudlet failure in model time.
type CrashEvent struct {
	AtSec float64
	Node  graph.NodeID
}

// chaosMix is the repo-standard splitmix64 finalizer.
func chaosMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CrashSchedule picks round(frac × #cloudlets) distinct cloudlet victims and
// spreads their crash times over the middle of [0, spanSec], fully
// determined by the seed. Data centers never crash — the paper's failure
// story is at the edge.
func CrashSchedule(p *placement.Problem, frac float64, seed int64, spanSec float64) []CrashEvent {
	var cloudlets []graph.NodeID
	for _, v := range p.Cloud.ComputeNodes() {
		if p.Cloud.Topology().Nodes[v].Kind == topology.Cloudlet {
			cloudlets = append(cloudlets, v)
		}
	}
	sort.Slice(cloudlets, func(i, j int) bool { return cloudlets[i] < cloudlets[j] })
	kills := int(math.Round(frac * float64(len(cloudlets))))
	if kills > len(cloudlets) {
		kills = len(cloudlets)
	}
	if kills <= 0 || spanSec <= 0 {
		return nil
	}
	state := uint64(seed)
	next := func() uint64 {
		state = chaosMix(state)
		return state
	}
	// Partial Fisher–Yates over the sorted cloudlet list.
	for i := 0; i < kills; i++ {
		j := i + int(next()%uint64(len(cloudlets)-i))
		cloudlets[i], cloudlets[j] = cloudlets[j], cloudlets[i]
	}
	events := make([]CrashEvent, 0, kills)
	for i := 0; i < kills; i++ {
		at := spanSec * (0.1 + 0.8*float64(next()%1000)/1000)
		events = append(events, CrashEvent{AtSec: at, Node: cloudlets[i]})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].AtSec != events[j].AtSec {
			return events[i].AtSec < events[j].AtSec
		}
		return events[i].Node < events[j].Node
	})
	return events
}

// ChaosOutcome aggregates one engine run under the crash schedule.
type ChaosOutcome struct {
	VolumeAdmitted float64
	Evicted        int
	Repaired       int
	NewReplicas    int
	ResyncGB       float64
	RetryExhausted int
}

// chaosItem is one pending event of the model-time loop: an arrival (or a
// retry of one) or a crash.
type chaosItem struct {
	at      float64
	seq     int
	crash   bool
	node    graph.NodeID
	arrival online.Arrival
	delays  []float64 // remaining admission-retry backoffs, seconds
}

type chaosHeap []chaosItem

func (h chaosHeap) Len() int { return len(h) }
func (h chaosHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h chaosHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *chaosHeap) Push(x interface{}) { *h = append(*h, x.(chaosItem)) }
func (h *chaosHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// admissionRetryPolicy derives the deterministic backoff schedule for one
// query: capped exponential delays that fit inside the query's DeadlineSec —
// once the schedule is spent, the driver gives the query up with a
// retry-exhausted reject.
func admissionRetryPolicy(p *placement.Problem, q workload.QueryID, seed int64) []float64 {
	pol := retry.Policy{
		Base:        500 * time.Millisecond,
		Cap:         4 * time.Second,
		MaxAttempts: 4,
		Seed:        seed ^ int64(q)<<1,
	}
	budget := time.Duration(p.Queries[q].DeadlineSec * float64(time.Second))
	sched := pol.Schedule(budget)
	delays := make([]float64, len(sched))
	for i, d := range sched {
		delays[i] = d.Seconds()
	}
	return delays
}

// RunChaosOnline drives one online engine through arrivals and crashes in
// model-time order. Rejected arrivals are retried on their backoff schedule
// (re-offered at a later instant, when capacity may have been released or a
// repair may have opened a replica); a query whose schedule is exhausted is
// given up with a retry-exhausted reject event.
func RunChaosOnline(p *placement.Problem, arrivals []workload.Arrival, crashes []CrashEvent, opts online.Options, seed int64) (ChaosOutcome, error) {
	var out ChaosOutcome
	e := online.NewEngine(p, len(arrivals), opts)
	m, err := consistency.NewManager(p.Cloud.Topology(), p.Datasets, e.Solution(), 0.5)
	if err != nil {
		return out, err
	}
	e.AttachConsistency(m)

	var h chaosHeap
	seq := 0
	push := func(it chaosItem) {
		it.seq = seq
		seq++
		heap.Push(&h, it)
	}
	for _, a := range arrivals {
		push(chaosItem{
			at:      a.AtSec,
			arrival: online.Arrival{Query: a.Query, AtSec: a.AtSec, HoldSec: a.HoldSec},
			delays:  admissionRetryPolicy(p, a.Query, seed),
		})
	}
	for _, c := range crashes {
		push(chaosItem{at: c.AtSec, crash: true, node: c.Node})
	}

	for h.Len() > 0 {
		it := heap.Pop(&h).(chaosItem)
		if it.crash {
			rep, err := e.Crash(it.at, it.node)
			if err != nil {
				return out, err
			}
			out.Evicted += len(rep.Evicted)
			out.Repaired += rep.Repaired
			out.NewReplicas += rep.NewReplicas
			out.ResyncGB += rep.ResyncGB
			continue
		}
		arr := it.arrival
		arr.AtSec = it.at
		dec, err := e.Offer(arr)
		if err != nil {
			return out, err
		}
		if dec.Admitted {
			continue
		}
		if len(it.delays) == 0 {
			out.RetryExhausted++
			e.EmitRetryExhausted(arr.Query)
			continue
		}
		next := it
		next.at = it.at + it.delays[0]
		next.delays = it.delays[1:]
		push(next)
	}
	e.EmitEnd()
	out.VolumeAdmitted = e.Result().VolumeAdmitted
	return out, nil
}

// ExtChaos sweeps the cloudlet crash fraction and compares three series of
// the same arrival stream: fault-free, crashes with failover repair, and
// crashes with eviction only. The repair series also reports the
// re-replication traffic its repairs cost — the consistency price of the
// retained volume.
func ExtChaos(cfg SimConfig, crashFracs []float64) (*metrics.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(crashFracs) == 0 {
		return nil, fmt.Errorf("experiments: empty crash-fraction sweep")
	}
	t := metrics.NewTable("Failover repair under cloudlet crashes", "cloudlet crash fraction", "mean admitted volume (GB)")
	tc := newTopoCache()
	for _, frac := range crashFracs {
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("experiments: crash fraction %v outside [0,1]", frac)
		}
		type cell struct{ free, rep, norep, resync float64 }
		cells := make([]cell, len(cfg.Seeds))
		err := forEachSeed(cfg.Seeds, func(i int, seed int64) error {
			sj := activeSweepJournal()
			key := ""
			if sj != nil {
				key = sweepCellKey(t.Title, fmt.Sprintf("%g", frac), seed)
				vals, replayed, err := sj.replayCell(key, 4)
				if err != nil {
					return err
				}
				if replayed {
					cells[i] = cell{free: vals[0], rep: vals[1], norep: vals[2], resync: vals[3]}
					return nil
				}
			}
			p, err := tc.instance(seed, 30, cfg.NumDatasets, cfg.NumQueries, cfg.F, cfg.K, false)
			if err != nil {
				return err
			}
			arrivals, err := workload.GenerateArrivals(
				&workload.Workload{Datasets: p.Datasets, Queries: p.Queries},
				workload.ArrivalConfig{MeanRatePerSec: 0.5, MeanHoldSec: 50, Seed: seed})
			if err != nil {
				return err
			}
			span := 0.0
			if len(arrivals) > 0 {
				span = arrivals[len(arrivals)-1].AtSec
			}
			crashes := CrashSchedule(p, frac, seed, span)
			statAlgoRuns.Inc()
			var capture *sweepCapture
			if sj != nil {
				capture = sj.beginCell()
			}
			free, err := RunChaosOnline(p, arrivals, nil, online.Options{}, seed)
			if err != nil {
				return err
			}
			rep, err := RunChaosOnline(p, arrivals, crashes, online.Options{}, seed)
			if err != nil {
				return err
			}
			norep, err := RunChaosOnline(p, arrivals, crashes, online.Options{NoRepair: true}, seed)
			if err != nil {
				return err
			}
			cells[i] = cell{free: free.VolumeAdmitted, rep: rep.VolumeAdmitted, norep: norep.VolumeAdmitted, resync: rep.ResyncGB}
			if sj != nil {
				return sj.commitCell(key, []float64{cells[i].free, cells[i].rep, cells[i].norep, cells[i].resync}, capture)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var freeSum, repSum, norepSum, resyncSum float64
		for _, cl := range cells {
			freeSum += cl.free
			repSum += cl.rep
			norepSum += cl.norep
			resyncSum += cl.resync
		}
		tick := fmt.Sprintf("%g", frac)
		n := float64(len(cfg.Seeds))
		t.AddPoint("fault-free", tick, freeSum/n)
		t.AddPoint("crashes + repair", tick, repSum/n)
		t.AddPoint("crashes, evict only", tick, norepSum/n)
		t.AddPoint("repair resync traffic (GB)", tick, resyncSum/n)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
