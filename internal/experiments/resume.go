// Resumable sweeps: every finished cell of a figure sweep — one (x, seed)
// instance, all algorithms — is journaled to a WAL as (key, values, trace
// lines), so a killed run can resume and produce byte-identical tables and
// JSONL traces. The mechanism is deliberately at cell granularity: cells are
// the sweep's unit of determinism (algorithms inside a cell share one
// problem instance), and replaying a cell is just restoring two floats per
// algorithm plus re-emitting the exact trace lines the original run wrote
// (instrument.JSONLSink.SetMirror captures them live; WriteRawLines replays
// them with the Seq counter advanced, and AdvanceTraceRuns keeps run IDs
// aligned for the live cells that follow).
//
// The journal's first record is a meta record pinning whether the sweep was
// traced: resuming a traced sweep untraced (or vice versa) cannot be
// byte-identical, so it is refused with ErrResumeMismatch.
package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"edgerep/internal/instrument"
	"edgerep/internal/journal"
)

// ErrCrashInjected is returned by a sweep whose journal was configured (via
// SetCrash) to die after N cells: the proc-crash fault for in-process tests.
// The CLI equivalent kills the process outright with SIGKILL.
var ErrCrashInjected = errors.New("experiments: injected sweep crash")

// ErrResumeMismatch reports a resume whose run configuration cannot
// reproduce the journaled run byte-for-byte (trace mode differs, or a cell's
// journaled shape does not fit the sweep being run).
var ErrResumeMismatch = errors.New("experiments: resume mismatch")

const (
	sweepRecordMeta = "meta"
	sweepRecordCell = "cell"
)

// sweepRecord is one WAL entry of a sweep journal.
type sweepRecord struct {
	Kind string `json:"kind"`
	// Traced pins the trace mode of the whole sweep (meta records).
	Traced bool `json:"traced,omitempty"`
	// Cell is one finished sweep cell (cell records).
	Cell *sweepCellRecord `json:"cell,omitempty"`
}

// sweepCellRecord is one finished cell: its identity, the per-algorithm
// values the tables need, and the exact trace lines it emitted.
type sweepCellRecord struct {
	Key    string    `json:"key"`
	Values []float64 `json:"values"`
	Trace  []string  `json:"trace,omitempty"`
}

// SweepJournal journals finished sweep cells and replays them on resume.
// Attach with SetSweepJournal; the sweep drivers pick it up per cell.
type SweepJournal struct {
	mu       sync.Mutex
	j        *journal.Journal
	cells    map[string]*sweepCellRecord
	replayed int

	// crashAfter kills the run while appending the Nth cell record (torn
	// tail and all); crashFn is what "dying" means — SIGKILL in the CLIs, a
	// plain return in tests. committed counts only cells appended by this
	// process, so a resumed run crashes relative to its own progress.
	crashAfter int
	committed  int
	crashFn    func()
}

// sweepJournalPtr is the process-global journal the drivers consult; nil
// means sweeps are not journaled (the default — zero overhead).
var sweepJournalPtr atomic.Pointer[SweepJournal]

// SetSweepJournal attaches (or with nil detaches) the process-global sweep
// journal. Journaled sweeps serialize their seed loops (forEachSeed), like
// traced sweeps, so cells commit in a canonical order.
func SetSweepJournal(sj *SweepJournal) {
	if sj == nil {
		sweepJournalPtr.Store(nil)
		return
	}
	sweepJournalPtr.Store(sj)
}

func activeSweepJournal() *SweepJournal { return sweepJournalPtr.Load() }

// OpenSweepJournal opens dir as a sweep journal. With resume false the
// directory must not already hold a journal (refusing to silently mix two
// runs); with resume true the surviving records — tolerating a torn tail
// from a crash mid-append — are loaded for replay and the trace mode is
// checked against the current run's. The caller Closes it after the sweep.
func OpenSweepJournal(dir string, resume bool) (*SweepJournal, error) {
	st, err := journal.Load(dir)
	if err != nil {
		return nil, err
	}
	if !resume && len(st.Records) > 0 {
		return nil, fmt.Errorf("experiments: journal %s already holds %d records; pass -resume to continue it", dir, len(st.Records))
	}
	sj := &SweepJournal{cells: make(map[string]*sweepCellRecord)}
	for i, raw := range st.Records {
		var rec sweepRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("experiments: sweep journal record %d: %w", i+1, err)
		}
		switch {
		case i == 0 && rec.Kind == sweepRecordMeta:
			if rec.Traced != instrument.TraceActive() {
				return nil, fmt.Errorf("experiments: journal was recorded traced=%v but this run is traced=%v: %w",
					rec.Traced, instrument.TraceActive(), ErrResumeMismatch)
			}
		case rec.Kind == sweepRecordCell && rec.Cell != nil:
			sj.cells[rec.Cell.Key] = rec.Cell
		default:
			return nil, fmt.Errorf("experiments: sweep journal record %d has kind %q: %w", i+1, rec.Kind, ErrResumeMismatch)
		}
	}
	if len(sj.cells) > 0 && instrument.TraceActive() {
		if _, ok := instrument.CurrentTraceSink().(*instrument.JSONLSink); !ok {
			return nil, fmt.Errorf("experiments: resuming a traced sweep needs a JSONL trace sink: %w", ErrResumeMismatch)
		}
	}
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	if j.LSN() == 0 {
		meta, err := json.Marshal(&sweepRecord{Kind: sweepRecordMeta, Traced: instrument.TraceActive()})
		if err != nil {
			if cerr := j.Close(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("experiments: marshal sweep meta: %w", err)
		}
		if _, err := j.Append(meta); err != nil {
			if cerr := j.Close(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
	}
	sj.j = j
	return sj, nil
}

// SetCrash arms the proc-crash fault: the Nth cell commit (1-based, counting
// cells appended by THIS process, after any replayed ones) tears the WAL
// tail mid-record and calls fn. The CLIs pass a SIGKILL; tests pass a no-op
// and observe ErrCrashInjected.
func (sj *SweepJournal) SetCrash(afterCells int, fn func()) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	sj.crashAfter = afterCells
	sj.crashFn = fn
}

// Close closes the underlying journal.
func (sj *SweepJournal) Close() error { return sj.j.Close() }

// replayCell serves a journaled cell: its values are returned and its trace
// lines are re-emitted verbatim into the live JSONL sink. ok is false when
// the cell is not in the journal (it must be run live).
func (sj *SweepJournal) replayCell(key string, wantValues int) (values []float64, ok bool, err error) {
	sj.mu.Lock()
	cell, found := sj.cells[key]
	sj.mu.Unlock()
	if !found {
		return nil, false, nil
	}
	if len(cell.Values) != wantValues {
		return nil, false, fmt.Errorf("experiments: journaled cell %q has %d values, sweep wants %d: %w",
			key, len(cell.Values), wantValues, ErrResumeMismatch)
	}
	if len(cell.Trace) > 0 {
		sink, isJSONL := instrument.CurrentTraceSink().(*instrument.JSONLSink)
		if !isJSONL {
			return nil, false, fmt.Errorf("experiments: cell %q carries trace lines but no JSONL sink is attached: %w",
				key, ErrResumeMismatch)
		}
		if err := sink.WriteRawLines(cell.Trace); err != nil {
			return nil, false, err
		}
		runs := int64(0)
		for _, line := range cell.Trace {
			var ev instrument.TraceEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, false, fmt.Errorf("experiments: journaled trace line of cell %q: %w", key, err)
			}
			if ev.Event == instrument.EventBegin {
				runs++
			}
		}
		instrument.AdvanceTraceRuns(runs)
	}
	sj.mu.Lock()
	sj.replayed++
	sj.mu.Unlock()
	return cell.Values, true, nil
}

// sweepCapture mirrors the trace lines of one in-flight cell.
type sweepCapture struct {
	sink *instrument.JSONLSink
	buf  bytes.Buffer
}

// beginCell starts capturing the trace of a live cell (a no-op capture when
// the run is untraced).
func (sj *SweepJournal) beginCell() *sweepCapture {
	cap := &sweepCapture{}
	if sink, ok := instrument.CurrentTraceSink().(*instrument.JSONLSink); ok {
		cap.sink = sink
		sink.SetMirror(&cap.buf)
	}
	return cap
}

// commitCell journals one finished cell (detaching the capture mirror
// first), or — when the armed crash count is reached — tears the WAL tail
// mid-record and dies.
func (sj *SweepJournal) commitCell(key string, values []float64, cap *sweepCapture) error {
	var lines []string
	if cap != nil && cap.sink != nil {
		cap.sink.SetMirror(nil)
		for _, line := range strings.Split(cap.buf.String(), "\n") {
			if line != "" {
				lines = append(lines, line)
			}
		}
	}
	rec := sweepRecord{Kind: sweepRecordCell, Cell: &sweepCellRecord{Key: key, Values: values, Trace: lines}}
	data, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("experiments: marshal sweep cell: %w", err)
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	sj.committed++
	if sj.crashAfter > 0 && sj.committed == sj.crashAfter {
		if err := sj.j.TearTail(data); err != nil {
			return err
		}
		if sj.crashFn != nil {
			sj.crashFn()
		}
		return fmt.Errorf("experiments: died appending cell %q: %w", key, ErrCrashInjected)
	}
	if _, err := sj.j.Append(data); err != nil {
		return err
	}
	sj.cells[key] = rec.Cell
	return nil
}

// sweepCellKey names one sweep cell; the tick is formatted exactly as the
// table renders it so keys stay stable across runs.
func sweepCellKey(title, tick string, seed int64) string {
	return fmt.Sprintf("%s|x=%s|seed=%d", title, tick, seed)
}
