package main

import "time"

// The reference CPU. The sandbox's processor has slow regimes, and two kinds
// of them (CALIBRATION.md has the traces). In one, for half an hour at a
// time, readings of the same work jump between their usual value and 60% more
// from one reading to the next: the better quartile of a run's readings
// (samples.better) does not see it. In the other, for forty seconds or for
// minutes, every reading is 25-50% up, which is more than any bound the
// contract allows and, when it covers three of a workload's ten runs, more
// than the driver's check on their spread allows; no statistic of the
// readings sees through that. So beside each reading of CPU-bound work a
// probe of fixed work is timed, and the run's figure is quoted for a
// processor of fixed speed, the way wire-durable is quoted for a disk of
// fixed speed (refAppendSyncUs): the better quartile of the readings divided
// by the better quartile of how much longer than on the reference CPU the
// probes took (rates are multiplied). The probe is the benchmark's own code
// and no change to the repository moves it; what a change does to the time
// the program takes shows in full.
const (
	refSpinMs   = 3.55
	refWalkMs   = 1.8
	probePasses = 3
	spinSteps   = 2_500_000
	walkSteps   = 250_000
	walkMask    = 1<<21 - 1
)

// walkBuf is the 16 MiB the probe's second loop walks; it holds no pointers,
// so the collector does not scan it.
var walkBuf = make([]int64, walkMask+1)

// probeSink keeps the probe's loops from being optimised away.
var probeSink int64

// cpuFactor times the probe and returns how much longer it took than on the
// reference CPU: 1 on a quiet minute of this sandbox, 1.4 in a slow one.
func cpuFactor() float64 {
	spin, walk := time.Duration(1<<62), time.Duration(1<<62)
	x, idx := uint64(1), 0
	var sum int64
	for pass := 0; pass < probePasses; pass++ {
		t0 := time.Now()
		for i := 0; i < spinSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		t1 := time.Now()
		for i := 0; i < walkSteps; i++ {
			idx = (idx*1103515245 + 12345) & walkMask
			sum += walkBuf[idx]
			walkBuf[idx] = sum
		}
		t2 := time.Now()
		spin, walk = min(spin, t1.Sub(t0)), min(walk, t2.Sub(t1))
	}
	probeSink += sum + int64(x)
	return (spin.Seconds()*1e3/refSpinMs + walk.Seconds()*1e3/refWalkMs) / 2
}

// probeCPU takes the probe, before a reading of CPU-bound work.
func (r *runner) probeCPU() { r.s.add("bench.cpu_factor", cpuFactor()) }

// cpuQuoted says whether the workload's reading of an end-to-end metric is
// CPU-bound, and so quoted for the reference CPU: set-up, recovery and the
// solve always, throughput and latency where the serving is in process. On
// the wire the disk (wire-durable, quoted for the reference disk) or the
// epoch timer (wire-trickle) sets them, and journal bytes are not a time.
func (sp spec) cpuQuoted(metric string) bool {
	switch metric {
	case "setup_s", "recover_s", "solve_s":
		return true
	case "decisions_per_s", "latency_p50_ms":
		return !sp.wire()
	}
	return false
}
