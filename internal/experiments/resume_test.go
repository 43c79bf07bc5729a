package experiments

import (
	"bytes"
	"errors"
	"testing"

	"edgerep/internal/instrument"
)

// Replayed reports how many cells were served from the journal.
func (sj *SweepJournal) Replayed() int {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.replayed
}

// resumeConfig is a four-cell Fig-2 sweep: small enough to run three times
// per test (reference, crashed, resumed), large enough that a crash after
// three cells leaves real work for the resume.
func resumeConfig() SimConfig {
	c := QuickSimConfig()
	c.Seeds = []int64{1, 2}
	c.NetworkSizes = []int{20, 50}
	return c
}

// withSweepJournal opens dir as the process-global sweep journal, runs fn,
// then detaches and closes. crashAfter > 0 arms the in-process proc-crash
// fault (a plain return instead of a SIGKILL).
func withSweepJournal(t *testing.T, dir string, resume bool, crashAfter int, fn func()) *SweepJournal {
	t.Helper()
	sj, err := OpenSweepJournal(dir, resume)
	if err != nil {
		t.Fatal(err)
	}
	if crashAfter > 0 {
		sj.SetCrash(crashAfter, func() {})
	}
	SetSweepJournal(sj)
	defer func() {
		SetSweepJournal(nil)
		if err := sj.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
	return sj
}

func TestResumeFig2ByteIdenticalTables(t *testing.T) {
	cfg := resumeConfig()
	vol, tp, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	withSweepJournal(t, dir, false, 3, func() {
		if _, _, err := Fig2(cfg); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("crashed run: err=%v, want ErrCrashInjected", err)
		}
	})

	sj := withSweepJournal(t, dir, true, 0, func() {
		vol2, tp2, err := Fig2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if vol2.CSV() != vol.CSV() {
			t.Fatalf("resumed volume table differs:\n%s\nvs\n%s", vol2.CSV(), vol.CSV())
		}
		if tp2.CSV() != tp.CSV() {
			t.Fatalf("resumed throughput table differs:\n%s\nvs\n%s", tp2.CSV(), tp.CSV())
		}
	})
	// Two cells committed before the third append tore the tail.
	if got := sj.Replayed(); got != 2 {
		t.Fatalf("resume replayed %d cells, want 2", got)
	}
}

func TestResumeFig2ByteIdenticalTraces(t *testing.T) {
	cfg := resumeConfig()
	full := runFig2Traced(t, cfg)

	dir := t.TempDir()
	instrument.ResetTrace()
	var crashBuf bytes.Buffer
	crashSink := instrument.NewJSONLSink(&crashBuf)
	instrument.SetTraceSink(crashSink)
	withSweepJournal(t, dir, false, 3, func() {
		if _, _, err := Fig2(cfg); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("crashed run: err=%v, want ErrCrashInjected", err)
		}
	})
	instrument.ResetTrace()
	if err := crashSink.Close(); err != nil {
		t.Fatal(err)
	}

	instrument.ResetTrace()
	var buf bytes.Buffer
	sink := instrument.NewJSONLSink(&buf)
	instrument.SetTraceSink(sink)
	withSweepJournal(t, dir, true, 0, func() {
		if _, _, err := Fig2(cfg); err != nil {
			t.Fatal(err)
		}
	})
	instrument.ResetTrace()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if len(full) == 0 {
		t.Fatal("uninterrupted traced sweep produced no events")
	}
	if !bytes.Equal(buf.Bytes(), full) {
		t.Fatalf("resumed trace differs from uninterrupted trace (%d vs %d bytes)", buf.Len(), len(full))
	}
}

func TestResumeExtChaosByteIdentical(t *testing.T) {
	cfg := chaosConfig()
	fracs := []float64{0, 0.25}
	ref, err := ExtChaos(cfg, fracs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	withSweepJournal(t, dir, false, 4, func() {
		if _, err := ExtChaos(cfg, fracs); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("crashed run: err=%v, want ErrCrashInjected", err)
		}
	})
	sj := withSweepJournal(t, dir, true, 0, func() {
		got, err := ExtChaos(cfg, fracs)
		if err != nil {
			t.Fatal(err)
		}
		if got.CSV() != ref.CSV() {
			t.Fatalf("resumed chaos table differs:\n%s\nvs\n%s", got.CSV(), ref.CSV())
		}
	})
	if got := sj.Replayed(); got != 3 {
		t.Fatalf("resume replayed %d cells, want 3", got)
	}
}

func TestResumeTestbedByteIdentical(t *testing.T) {
	cfg := QuickTestbedConfig()
	cfg.Execute = false
	cfg.Seeds = []int64{1, 2}
	cfg.KValues = []int{1, 4}
	ref, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	withSweepJournal(t, dir, false, 3, func() {
		if _, err := Fig8(cfg); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("crashed run: err=%v, want ErrCrashInjected", err)
		}
	})
	withSweepJournal(t, dir, true, 0, func() {
		got, err := Fig8(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Volume.CSV() != ref.Volume.CSV() {
			t.Fatalf("resumed testbed volume table differs:\n%s\nvs\n%s", got.Volume.CSV(), ref.Volume.CSV())
		}
		if got.Throughput.CSV() != ref.Throughput.CSV() {
			t.Fatalf("resumed testbed throughput table differs:\n%s\nvs\n%s", got.Throughput.CSV(), ref.Throughput.CSV())
		}
	})
}

func TestResumeRefusesTraceModeMismatch(t *testing.T) {
	cfg := resumeConfig()
	dir := t.TempDir()
	// Record an untraced journal with at least one committed cell.
	withSweepJournal(t, dir, false, 3, func() {
		if _, _, err := Fig2(cfg); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("crashed run: err=%v, want ErrCrashInjected", err)
		}
	})
	// Resuming it traced cannot be byte-identical and must be refused.
	instrument.ResetTrace()
	var buf bytes.Buffer
	sink := instrument.NewJSONLSink(&buf)
	instrument.SetTraceSink(sink)
	defer instrument.ResetTrace()
	if _, err := OpenSweepJournal(dir, true); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("traced resume of untraced journal: err=%v, want ErrResumeMismatch", err)
	}
}

func TestOpenSweepJournalRefusesNonEmptyWithoutResume(t *testing.T) {
	cfg := resumeConfig()
	dir := t.TempDir()
	withSweepJournal(t, dir, false, 0, func() {
		if _, _, err := Fig2(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := OpenSweepJournal(dir, false); err == nil {
		t.Fatal("reopening a populated journal without resume succeeded")
	}
}
