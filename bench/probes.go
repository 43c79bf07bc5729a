package main

import (
	"bytes"
	"fmt"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
)

// layerProbes are the per-layer readings a traced run takes outside any
// section, each by calling one layer alone. They run before the home section,
// which then gets what is left of the budget.
func (r *runner) layerProbes() error {
	syncUs, err := r.appendProbe(journal.Options{}, 4*r.sp.probeAppends)
	if err != nil {
		return err
	}
	r.s.add("journal.append_sync_us", syncUs)
	nosyncUs, err := r.appendProbe(journal.Options{NoSync: true}, 40*r.sp.probeAppends)
	if err != nil {
		return err
	}
	r.s.add("journal.append_nosync_ns", nosyncUs*1e3)
	for i, nodes := range r.sp.curve {
		dijkstras, err := r.coldPathProbe(nodes)
		if err != nil {
			return err
		}
		if i == len(r.sp.curve)-1 {
			r.s.add("graph.dijkstra_calls", float64(dijkstras))
		}
	}
	return nil
}

// probeRecordBytes is the payload of the append probe: about the mean record
// of the daemon's journal (200-340 B a decision, snapshots included).
const probeRecordBytes = 256

// appendProbe times Journal.Append alone on a scratch journal and returns the
// microseconds one append took. With the per-record fsync it reads the disk
// as the daemon's journal meets it (back-to-back single-record appends);
// without, what is left is framing and the write call.
func (r *runner) appendProbe(opt journal.Options, count int) (us float64, err error) {
	payload := bytes.Repeat([]byte{'x'}, probeRecordBytes)
	dir, done := r.roundDir("append")
	defer done(&err)
	jn, err := journal.Open(dir, opt)
	if err != nil {
		return 0, err
	}
	m := r.tr.begin("journal.Append", mark{}, 0)
	for i := 0; i < count; i++ {
		if _, err := jn.Append(payload); err != nil {
			_ = jn.Close() // the append error is the one worth reporting
			return 0, err
		}
	}
	d := r.tr.end(m)
	if err := jn.Close(); err != nil {
		return 0, err
	}
	return d.Seconds() * 1e6 / float64(count), nil
}

// coldPathProbe builds the workload's instance at another network size and
// times the three things a cold start pays for in |V|: the instance, the
// all-pairs distance matrix inside it (returning how many Dijkstra runs that
// took), and the engine's fast-path tables.
func (r *runner) coldPathProbe(nodes int) (dijkstras int64, err error) {
	inst := r.sp.life
	inst.Nodes = nodes
	suffix := fmt.Sprintf(".v%d", nodes)
	m := r.tr.begin("server.BuildInstance"+suffix, mark{}, 0)
	p, err := server.BuildInstance(inst)
	r.s.add("server.instance_build_s"+suffix, r.tr.end(m).Seconds())
	if err != nil {
		return 0, err
	}
	calls := instrument.Snapshot()["graph.dijkstra_calls"]
	m = r.tr.begin("graph.DistanceCache.Matrix"+suffix, mark{}, 0)
	graph.NewDistanceCache(p.Cloud.Topology().Graph).Matrix()
	r.s.add("graph.matrix_build_s"+suffix, r.tr.end(m).Seconds())
	dijkstras = instrument.Snapshot()["graph.dijkstra_calls"] - calls
	m = r.tr.begin("online.NewEngine"+suffix, mark{}, 0)
	online.NewEngine(p, r.sp.failoverOffers, online.Options{})
	r.s.add("online.engine_build_s"+suffix, r.tr.end(m).Seconds())
	return dijkstras, nil
}
