package testbed

import (
	"context"
	"fmt"
	"sort"
	"time"

	"edgerep/internal/instrument"
)

// Chaos injection over the real-socket testbed: a ChaosController applies a
// deterministic seeded schedule of node kills/restarts, latency spikes, and
// link drops against a running Cluster. Faults act at the transport layer —
// a killed node's listener closes mid-flight, a spiked model stretches every
// injected WAN delay, a dropped link refuses connections — so the retry,
// degradation, and failover paths are exercised exactly as a production
// deployment would see them.

var (
	statChaosKills    = instrument.NewCounter("testbed.chaos_kills")
	statChaosRestarts = instrument.NewCounter("testbed.chaos_restarts")
	statChaosSpikes   = instrument.NewCounter("testbed.chaos_latency_spikes")
	statChaosDrops    = instrument.NewCounter("testbed.chaos_link_drops")
)

// ChaosKind identifies one fault type.
type ChaosKind string

const (
	// ChaosKill crashes a node (listener closed, replicas lost).
	ChaosKill ChaosKind = "kill"
	// ChaosRestart reboots a killed node empty (new address, no replicas).
	ChaosRestart ChaosKind = "restart"
	// ChaosLatencySpike multiplies every injected delay by Factor.
	ChaosLatencySpike ChaosKind = "latency-spike"
	// ChaosClearSpike restores the normal latency model.
	ChaosClearSpike ChaosKind = "clear-spike"
	// ChaosDropLink severs the From↔To region link (connect errors).
	ChaosDropLink ChaosKind = "drop-link"
	// ChaosClearDrops restores every severed link.
	ChaosClearDrops ChaosKind = "clear-drops"
)

// ChaosEvent is one scheduled fault. AtSec is model time from schedule
// start; Play converts it to wall time with the controller's TimeScale.
type ChaosEvent struct {
	AtSec  float64
	Kind   ChaosKind
	Node   int     // kill/restart target index
	Factor float64 // latency-spike multiplier
	From   string  // drop-link endpoints (regions)
	To     string
}

// ChaosConfig seeds a deterministic schedule over a cluster layout.
type ChaosConfig struct {
	// Nodes is the cluster size; FirstKillable..Nodes-1 are kill targets
	// (keep the data-center tier stable by setting FirstKillable past it).
	Nodes         int
	FirstKillable int
	// CrashFrac is the fraction of killable nodes to crash.
	CrashFrac float64
	// DownSec is how long a crashed node stays down before its restart.
	DownSec float64
	// SpanSec spreads the kills over [0, SpanSec].
	SpanSec float64
	// SpikeFactor, when > 1, adds one latency spike over the middle third
	// of the span.
	SpikeFactor float64
	Seed        int64
}

// GenerateChaosSchedule expands a ChaosConfig into a time-ordered event
// list. Same config, same schedule: targets and kill times come from the
// repo-standard splitmix stream over Seed.
func GenerateChaosSchedule(cfg ChaosConfig) []ChaosEvent {
	killable := cfg.Nodes - cfg.FirstKillable
	if killable <= 0 || cfg.CrashFrac <= 0 {
		return nil
	}
	kills := int(float64(killable)*cfg.CrashFrac + 0.5)
	if kills > killable {
		kills = killable
	}
	s := uint64(cfg.Seed)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// Seeded partial Fisher–Yates over the killable range picks distinct
	// victims.
	perm := make([]int, killable)
	for i := range perm {
		perm[i] = cfg.FirstKillable + i
	}
	for i := 0; i < kills; i++ {
		j := i + int(next()%uint64(killable-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var events []ChaosEvent
	for i := 0; i < kills; i++ {
		at := cfg.SpanSec * float64(next()%1000) / 1000
		events = append(events, ChaosEvent{AtSec: at, Kind: ChaosKill, Node: perm[i]})
		if cfg.DownSec > 0 {
			events = append(events, ChaosEvent{AtSec: at + cfg.DownSec, Kind: ChaosRestart, Node: perm[i]})
		}
	}
	if cfg.SpikeFactor > 1 {
		events = append(events,
			ChaosEvent{AtSec: cfg.SpanSec / 3, Kind: ChaosLatencySpike, Factor: cfg.SpikeFactor},
			ChaosEvent{AtSec: 2 * cfg.SpanSec / 3, Kind: ChaosClearSpike})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].AtSec < events[b].AtSec })
	return events
}

// ChaosController applies chaos events to one cluster. It is the only
// writer of the latency model's disturbance state.
type ChaosController struct {
	cluster  *Cluster
	schedule []ChaosEvent
	// TimeScale converts schedule AtSec to wall seconds in Play (e.g. the
	// latency scale of a fast test cluster); 0 means 1.
	TimeScale float64

	spike float64
	drops map[string]bool
}

// NewChaosController binds a schedule to a cluster.
func NewChaosController(c *Cluster, schedule []ChaosEvent) *ChaosController {
	return &ChaosController{cluster: c, schedule: schedule, drops: map[string]bool{}}
}

// Apply executes one event immediately.
func (cc *ChaosController) Apply(ev ChaosEvent) error {
	switch ev.Kind {
	case ChaosKill:
		if err := cc.cluster.KillNode(ev.Node); err != nil {
			return err
		}
		statChaosKills.Inc()
	case ChaosRestart:
		if err := cc.cluster.RestartNode(ev.Node); err != nil {
			return err
		}
		statChaosRestarts.Inc()
	case ChaosLatencySpike:
		cc.spike = ev.Factor
		statChaosSpikes.Inc()
	case ChaosClearSpike:
		cc.spike = 0
	case ChaosDropLink:
		cc.drops[ev.From+"|"+ev.To] = true
		statChaosDrops.Inc()
	case ChaosClearDrops:
		cc.drops = map[string]bool{}
	default:
		return fmt.Errorf("testbed: unknown chaos kind %q", ev.Kind)
	}
	cc.publish()
	return nil
}

// publish swaps the latency model's disturbance snapshot.
func (cc *ChaosController) publish() {
	if cc.spike == 0 && len(cc.drops) == 0 {
		cc.cluster.lat.setChaos(nil)
		return
	}
	st := &chaosState{SpikeFactor: cc.spike}
	if len(cc.drops) > 0 {
		st.Dropped = make(map[string]bool, len(cc.drops))
		for k := range cc.drops {
			st.Dropped[k] = true
		}
	}
	cc.cluster.lat.setChaos(st)
}

// Reset clears every active disturbance (killed nodes stay down — restart
// them via the schedule or RestartNode).
func (cc *ChaosController) Reset() {
	cc.spike = 0
	cc.drops = map[string]bool{}
	cc.publish()
}

// Play runs the schedule against the wall clock, sleeping between events
// (AtSec × TimeScale), until the schedule ends or ctx is cancelled. It
// returns the number of events applied and the first apply error.
func (cc *ChaosController) Play(ctx context.Context) (int, error) {
	scale := cc.TimeScale
	if scale <= 0 {
		scale = 1
	}
	start := time.Now()
	applied := 0
	for _, ev := range cc.schedule {
		at := time.Duration(ev.AtSec * scale * float64(time.Second))
		if wait := at - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return applied, ctx.Err()
			}
		}
		if err := cc.Apply(ev); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}
