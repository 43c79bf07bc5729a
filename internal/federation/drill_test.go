package federation

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestDrillEndToEnd runs the full 3-region kill-the-leader drill once and
// checks the report's hard guarantees: zero acked decisions lost (the drill
// errors internally otherwise), the term advanced, the stale-term probe was
// fenced, segments actually shipped before the kill with a non-negative
// replication lag, and the killed shard's ack stream resumed within the
// promotion budget — under 2s of model time and 5s of wall time from the
// kill to the first ack at the new term.
func TestDrillEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drill spins real listeners")
	}
	dir := t.TempDir()
	rep, err := RunDrill(DrillConfig{
		BaseDir: dir,
		Count:   600,
		Seed:    17,
		// The killed shard journals about 4 KiB before the kill; segments a
		// quarter of that ship several times over, not once.
		SegmentBytes: 1024,
		TraceOut:     filepath.Join(dir, "trace.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != 600 || rep.Acked != 600 {
		t.Fatalf("offers=%d acked=%d, want 600/600 — decisions lost", rep.Offers, rep.Acked)
	}
	if rep.JournalOffers != rep.Acked {
		t.Fatalf("journals hold %d offers for %d acks", rep.JournalOffers, rep.Acked)
	}
	if rep.Admitted+rep.Rejected != rep.Acked {
		t.Fatalf("admitted %d + rejected %d != acked %d", rep.Admitted, rep.Rejected, rep.Acked)
	}
	if rep.NewTerm != rep.OldTerm+1 {
		t.Fatalf("terms %d -> %d, want +1", rep.OldTerm, rep.NewTerm)
	}
	if rep.Fenced == 0 {
		t.Fatal("no stale-term offer was fenced")
	}
	if rep.Reoffered == 0 {
		t.Fatal("no offer went pending across the failover — kill happened too gently")
	}
	if rep.ShippedSegments == 0 {
		t.Fatal("standby shipped no segments before the kill")
	}
	if rep.SteadyLagRecords < 0 {
		t.Fatalf("steady-state replication lag %d records, want >= 0", rep.SteadyLagRecords)
	}
	if rep.PromotionGapModelSec <= 0 || rep.PromotionGapModelSec >= 2.0 {
		t.Fatalf("promotion gap %.4f model-sec, want (0, 2)", rep.PromotionGapModelSec)
	}
	if rep.FailoverWallNs <= 0 || rep.FailoverWallNs >= int64(5*time.Second) {
		t.Fatalf("kill to first new-term ack took %v of wall time, want (0, 5s)", time.Duration(rep.FailoverWallNs))
	}
	if rep.TraceEvents == 0 {
		t.Fatal("verification replay emitted no trace events")
	}
	if data, err := os.ReadFile(filepath.Join(dir, "trace.jsonl")); err != nil || len(data) == 0 {
		t.Fatalf("trace artifact missing or empty: %v", err)
	}
}

// walBytes concatenates every WAL artifact (segments, seals, snapshots,
// TERM) under dir in name order — the byte-identity fingerprint of a drill.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var names []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			names = append(names, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		rel, err := filepath.Rel(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(rel)
		buf.WriteByte(0)
		buf.Write(data)
	}
	return buf.Bytes()
}

// TestDrillDeterministicAcrossKillEpochs is the satellite-3 regression:
// SIGKILL the leader at 10 seeded random offer indices; for each, run the
// drill twice and require the surviving decision stream (the verification
// trace) and every journal byte — old leader, survivors, promoted leader —
// to be identical across the two runs.
func TestDrillDeterministicAcrossKillEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("20 drills spin real listeners")
	}
	rng := rand.New(rand.NewSource(41))
	const count = 240
	for trial := 0; trial < 10; trial++ {
		killAt := 40 + rng.Intn(count-80) // keep room to ship before and ack after
		var prints [2][]byte
		var traces [2][]byte
		for run := 0; run < 2; run++ {
			dir := t.TempDir()
			traceOut := filepath.Join(dir, "trace.jsonl")
			rep, err := RunDrill(DrillConfig{
				Regions:   2,
				BaseDir:   dir,
				Count:     count,
				Seed:      29,
				KillAfter: killAt,
				SyncEvery: 10,
				TraceOut:  traceOut,
			})
			if err != nil {
				t.Fatalf("trial %d (kill@%d) run %d: %v", trial, killAt, run, err)
			}
			if rep.Acked != count {
				t.Fatalf("trial %d run %d acked %d of %d", trial, run, rep.Acked, count)
			}
			tr, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			traces[run] = tr
			// Fingerprint only the journals (remove the trace first so the
			// artifact does not fingerprint itself).
			if err := os.Remove(traceOut); err != nil {
				t.Fatal(err)
			}
			prints[run] = walBytes(t, dir)
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Fatalf("trial %d (kill@%d): verification traces differ across runs", trial, killAt)
		}
		if !bytes.Equal(prints[0], prints[1]) {
			t.Fatalf("trial %d (kill@%d): journal bytes differ across runs", trial, killAt)
		}
	}
}
