package server

import (
	"net/http"
	"testing"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// groupCommitEpoch is the epoch size the group-commit tests cut at: with a
// wait bound far beyond any test's runtime, a batch of exactly this many
// requests is exactly one micro-epoch.
const groupCommitEpoch = 16

// newDurableServer starts a server over a journal that really fsyncs.
func newDurableServer(t *testing.T) (*placement.Problem, *journal.Journal, *Server, string) {
	t.Helper()
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := testInstance(t)
	eng := online.NewEngine(p, 10000, online.Options{Journal: jn})
	cfg := Config{Clock: zeroClock, EpochMaxQueries: groupCommitEpoch, EpochMaxWait: time.Minute}
	return p, jn, New(p, eng, cfg), dir
}

// epochBatch is one full epoch of requests at increasing model times.
func epochBatch(p *placement.Problem, epoch int) []AdmitRequest {
	reqs := make([]AdmitRequest, groupCommitEpoch)
	for i := range reqs {
		n := epoch*groupCommitEpoch + i
		reqs[i] = AdmitRequest{Query: workload.QueryID(n % len(p.Queries)), AtSec: float64(n+1) * 0.001, HoldSec: 0.01}
	}
	return reqs
}

// TestGroupCommitOneFsyncPerEpoch pins the tentpole on a journal that really
// syncs: every epoch costs exactly one journal fsync however many decisions it
// carries, every response leaves with its record already durable, the whole
// epoch is attributed that one commit as its fsync stage, and the control
// inputs (Crash, Restore) are durable when they return.
func TestGroupCommitOneFsyncPerEpoch(t *testing.T) {
	attributionOn(t, 64)
	instrument.Enable()
	defer instrument.Disable()
	p, jn, s, _ := newDurableServer(t)
	counters := func() (syncs, records int64) {
		snap := instrument.Snapshot()
		return snap["journal.syncs"], snap["journal.synced_records"]
	}
	s0, r0 := counters()

	const epochs = 6
	for e := 0; e < epochs; e++ {
		sent := instrument.Mono()
		resps, status, err := s.dispatch(epochBatch(p, e))
		observed := int64(instrument.Mono() - sent)
		if err != nil || status != http.StatusOK {
			t.Fatalf("epoch %d: status %d, %v", e, status, err)
		}
		want := int64((e + 1) * groupCommitEpoch)
		if jn.LSN() != want || jn.DurableLSN() != want {
			t.Fatalf("epoch %d acked at LSN %d with DurableLSN %d, want both %d", e, jn.LSN(), jn.DurableLSN(), want)
		}
		fsync := resps[0].StageNs[instrument.StageFsync]
		if fsync <= 0 {
			t.Fatalf("epoch %d: fsync stage %d ns on a journal that syncs", e, fsync)
		}
		for i, r := range resps {
			if r.Epoch != int64(e+1) {
				t.Fatalf("epoch %d response %d rode epoch %d; the batch was not one epoch", e, i, r.Epoch)
			}
			if got := r.StageNs[instrument.StageFsync]; got != fsync {
				t.Fatalf("epoch %d response %d: fsync stage %d ns, the epoch's commit took %d", e, i, got, fsync)
			}
			// Still a partition: the commit is counted once, as fsync, and
			// not again inside ack, so the stages cannot add up to more
			// than the client waited.
			var tl instrument.StageTimeline
			copy(tl[:], r.StageNs)
			if sum := tl.TotalNs(); sum > observed {
				t.Fatalf("epoch %d response %d: stages sum to %d ns, the client waited %d (stages %v)", e, i, sum, observed, r.StageNs)
			}
		}
	}
	syncs, records := counters()
	if syncs-s0 != epochs || records-r0 != epochs*groupCommitEpoch {
		t.Fatalf("%d epochs of %d cost %d fsyncs covering %d records, want %d and %d",
			epochs, groupCommitEpoch, syncs-s0, records-r0, epochs, epochs*groupCommitEpoch)
	}
	if got := s.Epochs(); got != epochs {
		t.Fatalf("server priced %d epochs, want %d", got, epochs)
	}

	victim := p.Cloud.ComputeNodes()[0]
	if _, err := s.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if jn.DurableLSN() != jn.LSN() || jn.LSN() != epochs*groupCommitEpoch+1 {
		t.Fatalf("Crash returned at LSN %d with DurableLSN %d", jn.LSN(), jn.DurableLSN())
	}
	if err := s.Restore(victim); err != nil {
		t.Fatal(err)
	}
	if jn.DurableLSN() != jn.LSN() || jn.LSN() != epochs*groupCommitEpoch+2 {
		t.Fatalf("Restore returned at LSN %d with DurableLSN %d", jn.LSN(), jn.DurableLSN())
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
}
