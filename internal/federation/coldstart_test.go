package federation

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
)

// Shape of BenchmarkColdStart's journal, the one the bench's restart leader
// leaves at 500 nodes: 20 500 records (its 500 warm-up offers and 20 000
// more), a snapshot every 8 000, 256 KiB segments, holds of half a model
// second, and a kill mid-record.
const (
	coldRecords      = 20500
	coldSnapEvery    = 8000
	coldSegmentBytes = 256 << 10
	coldHoldSec      = 0.5
	coldSeed         = 1
)

// BenchmarkColdStart times what a restart of the bench's 500-node leader
// pays, stage by stage, outside the benchmark harness: server.BuildInstance,
// journal.Load, journal.Open, online.Recover (its pricing tables, then the
// snapshot, then the 4 500 records after it) and the recovered daemon's first
// Admit. The journal is written once; each op recovers a fresh copy of it,
// the copy untimed. Each stage is reported per op in ms beside the total.
func BenchmarkColdStart(b *testing.B) {
	inst := server.InstanceConfig{Seed: 1, Nodes: 500, Datasets: 40, Queries: 400, F: 5, K: 3}
	src := filepath.Join(b.TempDir(), "leader")
	l, err := StartLeader(Config{
		Region: "bench", Instance: inst, Shards: 1, ExpectedArrivals: coldRecords,
		SnapshotEvery: coldSnapEvery, SegmentBytes: coldSegmentBytes, NoSync: true, DeterministicClock: true,
	}, src, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := server.Drive(l.Server(), server.DriveConfig{Count: coldRecords, Seed: coldSeed, MeanHoldSec: coldHoldSec}); err != nil {
		b.Fatal(err)
	}
	// Killed, not drained: a drain would snapshot at the end and leave
	// nothing to replay. The kill tears the tail, as the bench's does.
	if err := l.Kill(); err != nil {
		b.Fatal(err)
	}
	if err := l.Server().Drain(); err != nil && !errors.Is(err, journal.ErrTornTail) {
		b.Fatal(err)
	}
	if err := l.Journal().Close(); err != nil {
		b.Fatal(err)
	}
	next := server.Arrivals(inst.Queries, server.DriveConfig{
		Count: coldRecords + 1, StartIndex: coldRecords, Seed: coldSeed, MeanHoldSec: coldHoldSec})[0]
	opt := online.Options{SnapshotEvery: coldSnapEvery}

	var instance, load, open, tables, snapshot, replay, admit time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		disk := filepath.Join(b.TempDir(), "disk")
		if err := copyDir(src, disk); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		p, err := server.BuildInstance(inst)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		st, err := journal.Load(disk)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		jn, err := journal.Open(disk, journal.Options{SegmentBytes: coldSegmentBytes, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		opt.Journal = jn
		eng, err := online.Recover(p, coldRecords, opt, st)
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(p, eng, server.Config{Clock: func() float64 { return 0 }})
		t4 := time.Now()
		if _, err := srv.Admit(next); err != nil {
			b.Fatal(err)
		}
		t5 := time.Now()
		b.StopTimer()
		if got := int64(len(st.Records)) - st.SnapshotLSN; got != coldRecords-2*coldSnapEvery {
			b.Fatalf("replayed %d records past the snapshot, want %d", got, coldRecords-2*coldSnapEvery)
		}
		if err := srv.Drain(); err != nil {
			b.Fatal(err)
		}
		if err := jn.Close(); err != nil {
			b.Fatal(err)
		}
		cost := eng.StartCost()
		instance += t1.Sub(t0)
		load += t2.Sub(t1)
		open += t3.Sub(t2)
		tables += cost.Tables
		snapshot += cost.Snapshot
		replay += cost.Replay
		admit += t5.Sub(t4)
		b.StartTimer()
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(ms(instance), "instance-ms")
	b.ReportMetric(ms(load), "load-ms")
	b.ReportMetric(ms(open), "open-ms")
	b.ReportMetric(ms(tables), "tables-ms")
	b.ReportMetric(ms(snapshot), "snapshot-ms")
	b.ReportMetric(ms(replay), "replay-ms")
	b.ReportMetric(ms(admit), "admit-ms")
}

// copyDir copies the regular files of the flat directory src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	return errors.Join(err, out.Close())
}
