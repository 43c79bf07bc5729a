package instrument

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderWraparound fills a tiny ring several times over and
// demands exactly the newest Cap entries, oldest first — the wraparound
// index math must neither drop a slot nor resurrect an overwritten one.
func TestFlightRecorderWraparound(t *testing.T) {
	mc := NewManualClock()
	r := NewFlightRecorder(4, mc.Clock())
	if len(r.slots) != 4 {
		t.Fatalf("ring capacity = %d, want 4", len(r.slots))
	}
	for i := 0; i < 10; i++ {
		mc.Advance(time.Millisecond)
		r.RecordEvent(EventChaos, int64(i), -1, "")
	}
	got := r.Entries()
	if len(got) != 4 {
		t.Fatalf("Entries() returned %d entries, want 4", len(got))
	}
	for i, e := range got {
		wantID := int64(7 + i) // entries 7..10 survive of 10 recorded
		if e.ID != wantID {
			t.Fatalf("entry %d has ID %d, want %d", i, e.ID, wantID)
		}
		if e.Query != wantID-1 {
			t.Fatalf("entry %d has Query %d, want %d", i, e.Query, wantID-1)
		}
		if e.AtNs != wantID*int64(time.Millisecond) {
			t.Fatalf("entry %d stamped AtNs=%d, want %d", i, e.AtNs, wantID*int64(time.Millisecond))
		}
	}

	snap := r.Snapshot()
	if snap.Recorded != 10 || snap.Cap != 4 || len(snap.Entries) != 4 {
		t.Fatalf("snapshot recorded=%d cap=%d entries=%d, want 10/4/4",
			snap.Recorded, snap.Cap, len(snap.Entries))
	}
	if len(snap.StageNames) != int(NumStages) {
		t.Fatalf("snapshot carries %d stage names, want %d", len(snap.StageNames), NumStages)
	}
}

// TestFlightRecorderDecisionCopiesStages proves RecordDecision detaches the
// entry from the caller's (reused) timeline.
func TestFlightRecorderDecisionCopiesStages(t *testing.T) {
	r := NewFlightRecorder(2, NewManualClock().Clock())
	var tl StageTimeline
	tl[StageQueue] = 100
	tl[StageFsync] = 41
	r.RecordDecisionAt(EventAdmit, 7, 3, true, "", &tl, 0)
	tl[StageQueue] = 9999 // caller reuses the timeline for the next decision

	got := r.Entries()
	if len(got) != 1 {
		t.Fatalf("Entries() returned %d entries, want 1", len(got))
	}
	e := got[0]
	if e.Kind != EventAdmit || e.Query != 7 || e.Epoch != 3 || !e.Admitted {
		t.Fatalf("decision entry corrupted: %+v", e)
	}
	if len(e.Stages) != int(NumStages) || e.Stages[StageQueue] != 100 || e.Stages[StageFsync] != 41 {
		t.Fatalf("stage timeline not copied at record time: %v", e.Stages)
	}
	if e.TotalNs != 141 {
		t.Fatalf("TotalNs = %d, want 141", e.TotalNs)
	}
}

// TestFlightRecorderTinyAndClampedRing covers the n<1 clamp and the
// degenerate one-slot ring (every record overwrites the only slot).
func TestFlightRecorderTinyAndClampedRing(t *testing.T) {
	r := NewFlightRecorder(0, NewManualClock().Clock())
	if len(r.slots) != 1 {
		t.Fatalf("ring capacity after clamp = %d, want 1", len(r.slots))
	}
	for i := 0; i < 3; i++ {
		r.RecordEvent(EventDrain, int64(i), -1, "")
	}
	got := r.Entries()
	if len(got) != 1 || got[0].ID != 3 || got[0].Query != 2 {
		t.Fatalf("one-slot ring holds %+v, want only the newest entry (ID 3)", got)
	}
}

// TestFlightRecorderDumpJSON round-trips the /debug/flight payload.
func TestFlightRecorderDumpJSON(t *testing.T) {
	r := NewFlightRecorder(8, NewManualClock().Clock())
	var tl StageTimeline
	tl[StagePricing] = 12345
	r.RecordDecisionAt(EventReject, 2, 1, false, ReasonCapacity, &tl, 0)
	r.RecordEvent(EventCrash, -1, 4, ReasonNodeCrashed)

	data, err := r.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("dump has %d entries, want 2", len(snap.Entries))
	}
	if snap.Entries[0].Reason != ReasonCapacity || snap.Entries[1].Node != 4 {
		t.Fatalf("dump round-trip corrupted entries: %+v", snap.Entries)
	}
}

// TestFlightRecorderRaceStress hammers a small ring from GOMAXPROCS writers
// while a reader dumps it mid-churn. Run under -race (ci.sh does): the
// per-slot locking must be race-clean, every dump must be well-formed
// (strictly ascending IDs, never more than Cap entries), and no recorded ID
// may exceed the sequence counter.
func TestFlightRecorderRaceStress(t *testing.T) {
	r := NewFlightRecorder(16, nil)
	SetFlightRecorder(r)
	defer SetFlightRecorder(nil)
	if CurrentFlightRecorder() != r {
		t.Fatal("attached recorder is not the current one")
	}

	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tl StageTimeline
			for i := 0; i < perWriter; i++ {
				tl[StageQueue] = int64(i)
				if i%7 == 0 {
					CurrentFlightRecorder().RecordEvent(EventChaos, int64(i), int64(w), "")
				} else {
					CurrentFlightRecorder().RecordDecisionAt(EventAdmit, int64(i), int64(w), true, "", &tl, 0)
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := r.Entries()
			if len(got) > len(r.slots) {
				t.Errorf("dump has %d entries, cap is %d", len(got), len(r.slots))
				return
			}
			for i := 1; i < len(got); i++ {
				if got[i].ID <= got[i-1].ID {
					t.Errorf("dump IDs not strictly ascending: %d then %d", got[i-1].ID, got[i].ID)
					return
				}
			}
			if _, err := r.DumpJSON(); err != nil {
				t.Errorf("DumpJSON mid-churn: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	readerWG.Wait()

	want := int64(writers) * perWriter
	if got := r.Snapshot().Recorded; got != want {
		t.Fatalf("recorded %d entries, want %d", got, want)
	}
	final := r.Entries()
	if len(final) != len(r.slots) {
		t.Fatalf("final dump has %d entries, want full ring of %d", len(final), len(r.slots))
	}
	for _, e := range final {
		if e.ID < 1 || e.ID > want {
			t.Fatalf("entry ID %d outside recorded range [1,%d]", e.ID, want)
		}
	}
}
