package server

import (
	"errors"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// groupCommitEpoch is the epoch size the group-commit tests cut at: a POST
// is one queue entry, so a batch of exactly this many requests is exactly one
// micro-epoch.
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
	cfg := Config{Clock: zeroClock, EpochMaxQueries: groupCommitEpoch}
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
		resps, status, err := s.dispatch(epochBatch(p, e), new(admitScratch))
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

// newNoSyncServer starts a server over a journal that writes every record
// but skips the fsync, so epoch boundaries cost no disk time.
func newNoSyncServer(t *testing.T, epochMax int) (*placement.Problem, *journal.Journal, *Server, string) {
	t.Helper()
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jn.Close() })
	p := testInstance(t)
	eng := online.NewEngine(p, 20000, online.Options{Journal: jn})
	return p, jn, New(p, eng, Config{Clock: zeroClock, EpochMaxQueries: epochMax}), dir
}

// stallLoop parks the epoch loop inside a CrashAfter hook on the server's
// first offer, which it makes. Until release is called the loop holds that
// offer's epoch open and takes nothing off the queue; first yields the
// offer's decision afterwards.
func stallLoop(t *testing.T, s *Server) (release func(), first <-chan result) {
	t.Helper()
	stalled, gate := make(chan struct{}), make(chan struct{})
	s.CrashAfter(1, func() {
		close(stalled)
		<-gate
	})
	ch, err := s.enqueue(AdmitRequest{Query: 0, AtSec: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("the epoch loop never reached the stall hook")
	}
	return func() { close(gate) }, ch
}

// journalRecords decodes every record of a journal directory in LSN order.
func journalRecords(t *testing.T, dir string) []online.JournalRecord {
	t.Helper()
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]online.JournalRecord, len(st.Records))
	for i, payload := range st.Records {
		if err := online.DecodeRecord(payload, &recs[i]); err != nil {
			t.Fatalf("record at LSN %d: %v", i+1, err)
		}
	}
	return recs
}

// TestLoneOfferPaysNoTimer pins the group-commit epoch rule: an offer that
// finds the queue empty is priced at once, not after a wait for company. On
// an idle server with a journal that does not fsync, the queue stage of a
// lone offer is the hand-off to the epoch loop, microseconds; any wait for
// company would show here whole.
func TestLoneOfferPaysNoTimer(t *testing.T) {
	attributionOn(t, 64)
	_, _, s, _ := newNoSyncServer(t, 0)
	const n = 20
	queue := make([]int64, n)
	for i := range queue {
		resp, err := s.Admit(AdmitRequest{Query: 0, AtSec: float64(i+1) * 0.001, HoldSec: 0.0001})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.StageNs) != int(instrument.NumStages) {
			t.Fatalf("offer %d: no stage timeline under attribution", i)
		}
		queue[i] = resp.StageNs[instrument.StageQueue]
	}
	if got := s.Epochs(); got != n {
		t.Fatalf("%d sequential offers rode %d epochs, want %d", n, got, n)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	if med := time.Duration(queue[n/2]); med >= time.Millisecond {
		t.Fatalf("median queue stage of a lone offer is %v, want < 1ms (all: %v)", med, queue)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestPostIsOneQueueEntry pins what makes the no-wait epoch rule safe for
// batches: a POST's offers enter the queue as one entry, so two concurrent
// POSTs never interleave and each is priced as one epoch at consecutive
// LSNs, and a POST larger than EpochMaxQueries is cut in request order into
// full epochs and a tail.
func TestPostIsOneQueueEntry(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		p, _, s, dir := newNoSyncServer(t, groupCommitEpoch)
		release, first := stallLoop(t, s)
		holds := []float64{0.01, 0.02}
		posts := make([][]AdmitRequest, len(holds))
		for k, hold := range holds {
			posts[k] = make([]AdmitRequest, groupCommitEpoch)
			for i := range posts[k] {
				posts[k][i] = AdmitRequest{Query: workload.QueryID((k*groupCommitEpoch + i) % len(p.Queries)), AtSec: 0.002, HoldSec: hold}
			}
		}
		resps := make([][]AdmitResponse, len(posts))
		errs := make([]error, len(posts))
		var wg sync.WaitGroup
		for k := range posts {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				resps[k], _, errs[k] = s.dispatch(posts[k], new(admitScratch))
			}(k)
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(s.reqs) < len(posts) {
			if time.Now().After(deadline) {
				t.Fatalf("%d queue entries after %d POSTs", len(s.reqs), len(posts))
			}
			time.Sleep(time.Millisecond)
		}
		// Both POSTs are in once there are two entries. The pause only
		// gives a POST that was queued offer by offer time to show it.
		time.Sleep(20 * time.Millisecond)
		if got := len(s.reqs); got != len(posts) {
			t.Fatalf("%d POSTs of %d offers took %d queue entries, want one each", len(posts), groupCommitEpoch, got)
		}
		release()
		wg.Wait()
		if r := <-first; r.err != nil {
			t.Fatal(r.err)
		}
		for k := range posts {
			if errs[k] != nil {
				t.Fatalf("POST %d: %v", k, errs[k])
			}
			for i, r := range resps[k] {
				if r.Epoch != resps[k][0].Epoch {
					t.Fatalf("POST %d rode epochs %d and %d (response %d)", k, resps[k][0].Epoch, r.Epoch, i)
				}
			}
		}
		if resps[0][0].Epoch == resps[1][0].Epoch {
			t.Fatalf("both POSTs rode epoch %d at an epoch size of one POST", resps[0][0].Epoch)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		recs := journalRecords(t, dir)
		if len(recs) != 1+len(posts)*groupCommitEpoch {
			t.Fatalf("journal holds %d records, want %d", len(recs), 1+len(posts)*groupCommitEpoch)
		}
		// LSN 1 is the stalled offer; each POST then sits whole, in request
		// order, at consecutive LSNs.
		for lsn := 2; lsn <= len(recs); lsn += groupCommitEpoch {
			run := recs[lsn-1 : lsn-1+groupCommitEpoch]
			k := 0
			if run[0].Hold != holds[0] {
				k = 1
			}
			for i, rec := range run {
				if rec.Hold != holds[k] || rec.Query != posts[k][i].Query {
					t.Fatalf("LSN %d holds query %d (hold %g); POST %d's offer %d is query %d (hold %g)",
						lsn+i, rec.Query, rec.Hold, k, i, posts[k][i].Query, holds[k])
				}
			}
		}
	})

	t.Run("split", func(t *testing.T) {
		p, _, s, dir := newNoSyncServer(t, groupCommitEpoch)
		const n = 40
		post := make([]AdmitRequest, n)
		for i := range post {
			post[i] = AdmitRequest{Query: workload.QueryID(i % len(p.Queries)), AtSec: float64(i+1) * 0.001, HoldSec: 0.01}
		}
		resps, status, err := s.dispatch(post, new(admitScratch))
		if err != nil || status != http.StatusOK {
			t.Fatalf("status %d, %v", status, err)
		}
		sizes := map[int64]int{}
		for i, r := range resps {
			if i > 0 && r.Epoch < resps[i-1].Epoch {
				t.Fatalf("response %d rode epoch %d after epoch %d", i, r.Epoch, resps[i-1].Epoch)
			}
			sizes[r.Epoch]++
		}
		want := map[int64]int{1: 16, 2: 16, 3: 8}
		if len(sizes) != len(want) || sizes[1] != want[1] || sizes[2] != want[2] || sizes[3] != want[3] {
			t.Fatalf("a %d-offer POST at an epoch size of %d was cut into epochs %v, want %v", n, groupCommitEpoch, sizes, want)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		recs := journalRecords(t, dir)
		if len(recs) != n {
			t.Fatalf("journal holds %d records, want %d", len(recs), n)
		}
		for i, rec := range recs {
			if rec.Query != post[i].Query || rec.At != post[i].AtSec {
				t.Fatalf("LSN %d holds query %d at %g; offer %d is query %d at %g",
					i+1, rec.Query, rec.At, i, post[i].Query, post[i].AtSec)
			}
		}
	})
}

// TestDrainUnderSaturation drives Drain against a full queue with senders
// still blocked on it: the loop is stalled while concurrent senders push
// more than queueDepth entries, Drain starts, and only then does the loop
// run again. Drain must return, every offer must have been answered with a
// decision or refused with ErrDraining, and the journal must hold exactly
// the decisions answered.
func TestDrainUnderSaturation(t *testing.T) {
	_, jn, s, _ := newNoSyncServer(t, 0)
	release, first := stallLoop(t, s)
	const senders, perSender, postLen = 8, 560, 4
	type sent struct {
		chans    []<-chan result
		posts    []*postEntry
		draining bool
		err      error
	}
	out := make([]sent, senders)
	var wg sync.WaitGroup
	for k := range out {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			o := &out[k]
			for i := 0; i < perSender; i++ {
				req := AdmitRequest{Query: workload.QueryID(i % 7), AtSec: 0.002, HoldSec: 0.001}
				// Odd senders push whole POSTs: one entry, several offers.
				if k%2 == 1 {
					reqs := make([]AdmitRequest, postLen)
					for j := range reqs {
						reqs[j] = req
					}
					pe := new(postEntry)
					if err := s.enqueuePost(pe, reqs); err != nil {
						o.draining, o.err = errors.Is(err, ErrDraining), err
						return
					}
					o.posts = append(o.posts, pe)
					continue
				}
				ch, err := s.enqueue(req)
				if err != nil {
					o.draining, o.err = errors.Is(err, ErrDraining), err
					return
				}
				o.chans = append(o.chans, ch)
			}
		}(k)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.reqs) < queueDepth {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d entries, never filled to %d", len(s.reqs), queueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()
	// Release the loop only once Drain waits for the write lock behind the
	// blocked senders: from then on TryRLock fails.
	for s.sendMu.TryRLock() {
		s.sendMu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("Drain never asked for the write lock")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return under saturation")
	}
	wg.Wait()
	decisions := int64(0)
	if r := <-first; r.err != nil {
		t.Fatal(r.err)
	}
	decisions++
	for k, o := range out {
		if o.err != nil && !o.draining {
			t.Fatalf("sender %d: %v", k, o.err)
		}
		for i, ch := range o.chans {
			r := <-ch
			if r.err != nil {
				t.Fatalf("sender %d offer %d: %v", k, i, r.err)
			}
			decisions++
		}
		for i, pe := range o.posts {
			<-pe.done
			for j, r := range pe.replies {
				if r.err != nil {
					t.Fatalf("sender %d POST %d offer %d: %v", k, i, j, r.err)
				}
				decisions++
			}
		}
	}
	if decisions <= queueDepth {
		t.Fatalf("only %d decisions answered; the queue never saturated", decisions)
	}
	if jn.LSN() != decisions {
		t.Fatalf("journal LSN %d after %d decisions answered", jn.LSN(), decisions)
	}
}
