// Package journal is the durable-state layer of the serving stack: an
// append-only, CRC32-framed, segment-rotating write-ahead log plus
// checksummed point-in-time snapshots. The online admission engine journals
// every input it acts on (offers, crashes, restores) together with the
// outcome it committed to, the testbed cluster journals replica placements,
// and the experiment sweeps journal finished cells. Durability is split in
// two: AppendUnsynced frames a record and hands it to the OS (one write(2),
// so it already survives a process crash), Commit is the barrier — one fsync
// that covers everything written since the last one and advances DurableLSN.
// Append is AppendUnsynced plus Commit per record. The admission daemon
// commits once per micro-epoch and acknowledges only afterwards, so a power
// cut loses at most the unacknowledged epoch.
//
// Record framing (one frame per record, densely packed per segment):
//
//	[length uint32 LE][crc32(payload) uint32 LE][payload length bytes]
//
// Segments are named wal-%08d.seg, numbered from 1, and rotate when the
// active segment would exceed Options.SegmentBytes. A record's LSN (log
// sequence number) is its 1-based index across all segments in order.
//
// Torn-tail rules (see ARCHITECTURE.md, "Durability & recovery"): a frame at
// the tail of the LAST segment that is incomplete, zero-filled, or fails its
// CRC is a torn tail — the valid prefix stands, Load reports Torn, and Open
// truncates the segment at the last valid record before appending. The same
// damage anywhere else (an earlier segment, or followed by further bytes) is
// corruption: the journal's history cannot be trusted past that point and a
// typed ErrCorrupt is surfaced instead of a silently shortened history.
//
// Snapshots are single-frame files named snap-%016d.snap where the number is
// the LSN the snapshot was taken at: the snapshot payload encodes the state
// after applying records 1..LSN, so recovery is "load the newest valid
// snapshot, replay the WAL suffix". Snapshots are written to a temp file,
// fsynced, then renamed, so a crash mid-snapshot leaves the previous one
// intact.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"edgerep/internal/instrument"
)

const (
	headerSize = 8
	// maxRecordBytes bounds a single record; a decoded length beyond it is
	// framing garbage, not a record.
	maxRecordBytes = 1 << 28
	// defaultSegmentBytes rotates segments at 1 MiB unless configured.
	defaultSegmentBytes = 1 << 20

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// ErrTornTail marks a torn final record: the journal's valid prefix is
// usable, only the record being written when the process died is lost.
var ErrTornTail = errors.New("journal: torn tail")

// ErrCorrupt marks damage that is not a torn tail — a bad frame in the
// middle of the log — after which the history cannot be trusted.
var ErrCorrupt = errors.New("journal: corrupt record")

// Options tunes a Journal.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// size; 0 means 1 MiB.
	SegmentBytes int64
	// NoSync makes Commit skip its fsync (tests and benchmarks that measure
	// framing cost rather than disk latency).
	NoSync bool
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return defaultSegmentBytes
}

// Journal is an open write-ahead log positioned at its end. Not safe for
// concurrent use; callers serialize (the engines that journal are already
// single-writer).
type Journal struct {
	dir string
	opt Options

	f        *os.File
	segIndex int
	segSize  int64
	// segCRC is the running CRC32 of the active segment's bytes, maintained
	// incrementally so rotation can seal the segment without re-reading it.
	segCRC uint32
	// lsn is atomic for the same reason seals are mutex-guarded: the WAL
	// shipper's manifest reads the leader's position concurrently with the
	// single-writer append path.
	lsn atomic.Int64
	// durable is the highest LSN an fsync of its segment has covered; atomic
	// like lsn, so a reader can tell written from durable mid-epoch.
	durable atomic.Int64
	// frame is AppendUnsynced's reused framing buffer: the hot path allocates
	// nothing per record.
	frame []byte
	err   error // sticky: after a write error the journal refuses appends
	// sealMu guards seals: the one piece of journal state read by other
	// goroutines (WAL shippers list sealed segments while the owner appends).
	sealMu sync.Mutex
	seals  []SealInfo
}

// Fsyncs of the active segment and the records each one made durable: their
// ratio is records per fsync, and journal.syncs against server.epochs is
// fsyncs per micro-epoch (about 1 under group commit, plus rotations and
// snapshots).
var (
	statSyncs         = instrument.NewCounter("journal.syncs")
	statSyncedRecords = instrument.NewCounter("journal.synced_records")
)

// State is the recovered view of a journal directory: the newest valid
// snapshot (nil when none) and every decodable record from LSN 1.
type State struct {
	// SnapshotLSN is the LSN Snapshot was taken at (state after records
	// 1..SnapshotLSN); 0 when Snapshot is nil. Recovery replays
	// Records[SnapshotLSN:].
	SnapshotLSN int64
	Snapshot    []byte
	// Records holds every valid record payload in LSN order (Records[i] has
	// LSN i+1).
	Records [][]byte
	// Torn reports that the final segment ended in a torn record which was
	// ignored (and which Open would truncate away).
	Torn bool
}

// encodeFrame appends the frame for payload to dst.
func encodeFrame(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeSegment decodes the frames of one segment, treating data as the
// journal's final segment. It returns the valid record payloads, the number
// of bytes they occupy (the truncation point for a torn tail), and nil, a
// typed ErrTornTail, or a typed ErrCorrupt. It never panics on arbitrary
// input — FuzzJournalDecode holds it to that.
func DecodeSegment(data []byte) (recs [][]byte, consumed int, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < headerSize {
			return recs, off, fmt.Errorf("incomplete header at offset %d: %w", off, ErrTornTail)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 {
			// Zero length with zero CRC and an all-zero remainder is the
			// classic zero-filled pre-allocated tail; anything else in a
			// zero-length frame is framing damage mid-log.
			if crc == 0 && allZero(data[off:]) {
				return recs, off, fmt.Errorf("zero-filled tail at offset %d: %w", off, ErrTornTail)
			}
			return recs, off, fmt.Errorf("zero-length frame at offset %d: %w", off, ErrCorrupt)
		}
		if n > maxRecordBytes {
			if int64(off)+headerSize+int64(n) > int64(len(data)) {
				return recs, off, fmt.Errorf("oversized frame (%d bytes) at offset %d: %w", n, off, ErrTornTail)
			}
			return recs, off, fmt.Errorf("oversized frame (%d bytes) at offset %d: %w", n, off, ErrCorrupt)
		}
		end := off + headerSize + int(n)
		if end > len(data) {
			return recs, off, fmt.Errorf("truncated frame at offset %d (%d of %d payload bytes): %w",
				off, len(data)-off-headerSize, n, ErrTornTail)
		}
		payload := data[off+headerSize : end]
		if crc32.ChecksumIEEE(payload) != crc {
			// A complete frame with a bad checksum at the very end of the
			// segment is a partially persisted final record (pre-allocated
			// space, lost page); earlier it means the history is damaged.
			if end == len(data) {
				return recs, off, fmt.Errorf("checksum mismatch on final frame at offset %d: %w", off, ErrTornTail)
			}
			return recs, off, fmt.Errorf("checksum mismatch at offset %d: %w", off, ErrCorrupt)
		}
		recs = append(recs, append([]byte(nil), payload...))
		off = end
	}
	return recs, off, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func segName(index int) string  { return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix) }
func snapName(lsn int64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, lsn, snapSuffix) }

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &idx); err != nil || idx < 1 {
			continue
		}
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, nil
}

// Load reads the recoverable state of a journal directory without opening it
// for writing: the newest valid snapshot plus every valid record, tolerating
// a torn tail on the final segment. A missing directory is an empty journal.
func Load(dir string) (*State, error) {
	st := &State{}
	segs, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: scan %s: %w", dir, err)
	}
	for i, idx := range segs {
		if i > 0 && idx != segs[i-1]+1 {
			return nil, fmt.Errorf("journal: segment gap between %d and %d: %w", segs[i-1], idx, ErrCorrupt)
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(idx)))
		if err != nil {
			return nil, fmt.Errorf("journal: read segment %d: %w", idx, err)
		}
		recs, _, decErr := DecodeSegment(data)
		if decErr != nil {
			if errors.Is(decErr, ErrTornTail) && i == len(segs)-1 {
				// Torn tail on the final segment: keep the valid prefix.
				st.Records = append(st.Records, recs...)
				st.Torn = true
				break
			}
			// A torn tail can only exist at the journal's end; mid-log it is
			// corruption like any other.
			return nil, fmt.Errorf("journal: segment %d: %s: %w", idx, decErr, ErrCorrupt)
		}
		st.Records = append(st.Records, recs...)
	}
	if err := loadSnapshot(dir, st); err != nil {
		return nil, err
	}
	return st, nil
}

// loadSnapshot fills st with the newest snapshot that decodes cleanly and
// does not claim an LSN past the surviving record count (a snapshot ahead of
// the log would skip history recovery cannot replay).
func loadSnapshot(dir string, st *State) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("journal: scan snapshots: %w", err)
	}
	var lsns []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		var lsn int64
		if _, err := fmt.Sscanf(name, snapPrefix+"%016d"+snapSuffix, &lsn); err != nil || lsn < 0 {
			continue
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	for _, lsn := range lsns {
		if lsn > int64(len(st.Records)) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, snapName(lsn)))
		if err != nil {
			continue
		}
		recs, n, decErr := DecodeSegment(data)
		if decErr != nil || len(recs) != 1 || n != len(data) {
			continue // damaged snapshot: fall back to an older one
		}
		st.Snapshot = recs[0]
		st.SnapshotLSN = lsn
		return nil
	}
	return nil
}

// Open opens dir for appending, creating it if needed. An existing journal
// is scanned, a torn tail is truncated at the last valid record, and the
// journal is positioned after its final record. Mid-log corruption fails
// with ErrCorrupt — Open never silently drops committed history.
func Open(dir string, opt Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opt: opt}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: scan %s: %w", dir, err)
	}
	closed := make(map[int]sealSource, len(segs))
	for i, idx := range segs {
		if i > 0 && idx != segs[i-1]+1 {
			return nil, fmt.Errorf("journal: segment gap between %d and %d: %w", segs[i-1], idx, ErrCorrupt)
		}
		path := filepath.Join(dir, segName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: read segment %d: %w", idx, err)
		}
		recs, consumed, decErr := DecodeSegment(data)
		if decErr != nil {
			if !errors.Is(decErr, ErrTornTail) || i != len(segs)-1 {
				return nil, fmt.Errorf("journal: segment %d: %s: %w", idx, decErr, ErrCorrupt)
			}
			if err := os.Truncate(path, int64(consumed)); err != nil {
				return nil, fmt.Errorf("journal: truncate torn tail of segment %d: %w", idx, err)
			}
		}
		j.lsn.Add(int64(len(recs)))
		j.segIndex = idx
		j.segSize = int64(consumed)
		j.segCRC = crc32.ChecksumIEEE(data[:consumed])
		if i != len(segs)-1 {
			closed[idx] = sealSource{bytes: int64(consumed), crc: j.segCRC}
		}
	}
	if j.segIndex == 0 {
		j.segIndex = 1
	}
	j.durable.Store(j.lsn.Load())
	f, err := os.OpenFile(filepath.Join(dir, segName(j.segIndex)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open segment %d: %w", j.segIndex, err)
	}
	j.f = f
	if err := j.syncDir(); err != nil {
		if cerr := f.Close(); cerr != nil {
			return nil, fmt.Errorf("journal: close after failed dir sync: %w", cerr)
		}
		return nil, err
	}
	if err := j.backfillSeals(closed); err != nil {
		if cerr := f.Close(); cerr != nil {
			return nil, fmt.Errorf("journal: close after failed seal backfill: %w", cerr)
		}
		return nil, err
	}
	return j, nil
}

// LSN returns the log sequence number of the last appended record (0 when
// the journal is empty), durable or not. Safe to read concurrently with
// AppendUnsynced.
func (j *Journal) LSN() int64 { return j.lsn.Load() }

// DurableLSN returns the highest LSN covered by an fsync; LSN() - DurableLSN()
// is what a power cut right now would lose. Records Open found on disk count
// as covered: any of them a process crash left unsynced were never
// acknowledged, and sit in the active segment the next fsync covers. Safe to
// read concurrently with AppendUnsynced and Commit.
func (j *Journal) DurableLSN() int64 { return j.durable.Load() }

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// AppendUnsynced frames payload, writes it to the active segment with one
// write(2), and returns its LSN. The record survives a process crash from
// here on (it is in the page cache) but not a power cut: it is durable once a
// later Commit returns. Empty payloads are rejected (a zero length frame is
// reserved for torn-tail detection). After any write error the journal is
// poisoned and every later AppendUnsynced or Commit returns that first error.
func (j *Journal) AppendUnsynced(payload []byte) (int64, error) {
	if j.err != nil {
		return 0, j.err
	}
	if len(payload) == 0 {
		return 0, fmt.Errorf("journal: empty record")
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordBytes)
	}
	j.frame = encodeFrame(j.frame[:0], payload)
	if j.segSize > 0 && j.segSize+int64(len(j.frame)) > j.opt.segmentBytes() {
		if err := j.rotate(); err != nil {
			j.err = err
			return 0, err
		}
	}
	if _, err := j.f.Write(j.frame); err != nil {
		j.err = fmt.Errorf("journal: append: %w", err)
		return 0, j.err
	}
	j.segCRC = crc32.Update(j.segCRC, crc32.IEEETable, j.frame)
	j.segSize += int64(len(j.frame))
	return j.lsn.Add(1), nil
}

// Commit is the durability barrier: one fsync of the active segment covers
// every record written since the last one (earlier segments were synced when
// they rotated out), after which DurableLSN equals LSN. With nothing written
// since the last barrier, or under Options.NoSync, it does not touch the
// disk. A failed fsync poisons the journal: the kernel may have dropped the
// dirty pages, so nothing written since the last barrier can be trusted.
func (j *Journal) Commit() error {
	if j.err != nil {
		return j.err
	}
	lsn := j.lsn.Load()
	if j.durable.Load() == lsn {
		return nil
	}
	if j.opt.NoSync {
		j.durable.Store(lsn)
		return nil
	}
	if err := j.syncSegment(); err != nil {
		j.err = fmt.Errorf("journal: sync: %w", err)
		return j.err
	}
	return nil
}

// Append is AppendUnsynced followed by Commit: the record is durable when it
// returns (unless Options.NoSync).
func (j *Journal) Append(payload []byte) (int64, error) {
	lsn, err := j.AppendUnsynced(payload)
	if err != nil {
		return 0, err
	}
	if err := j.Commit(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// syncSegment fsyncs the active segment, which makes every record written so
// far durable.
func (j *Journal) syncSegment() error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	lsn := j.lsn.Load()
	statSyncs.Inc()
	statSyncedRecords.Add(lsn - j.durable.Load())
	j.durable.Store(lsn)
	return nil
}

// rotate closes the active segment, starts the next one, and publishes a
// durable seal for the closed segment. The seal goes last: a crash after the
// new segment exists but before its predecessor's seal lands leaves an
// unsealed closed segment, which the next Open backfills — shippers only
// ever see the seal once the sealed bytes are already immutable on disk.
func (j *Journal) rotate() error {
	if err := j.syncSegment(); err != nil {
		return fmt.Errorf("journal: sync before rotate: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment %d: %w", j.segIndex, err)
	}
	sealedIndex, sealedSize, sealedCRC := j.segIndex, j.segSize, j.segCRC
	j.segIndex++
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.segIndex)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create segment %d: %w", j.segIndex, err)
	}
	j.f = f
	j.segSize = 0
	j.segCRC = 0
	if err := j.syncDir(); err != nil {
		return err
	}
	return j.publishSeal(sealedIndex, sealedSize, sealedCRC)
}

// Snapshot writes payload as the checksummed state snapshot at the current
// LSN: the WAL is synced first (the snapshot must never lead the log), the
// snapshot goes to a temp file, is fsynced, and is renamed into place.
func (j *Journal) Snapshot(payload []byte) error {
	if j.err != nil {
		return j.err
	}
	if len(payload) == 0 {
		return fmt.Errorf("journal: empty snapshot")
	}
	if err := j.syncSegment(); err != nil {
		j.err = fmt.Errorf("journal: sync before snapshot: %w", err)
		return j.err
	}
	tmp, err := os.CreateTemp(j.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: snapshot temp file: %w", err)
	}
	frame := encodeFrame(nil, payload)
	if _, err := tmp.Write(frame); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			return fmt.Errorf("journal: close failed snapshot: %w", cerr)
		}
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			return fmt.Errorf("journal: close failed snapshot: %w", cerr)
		}
		return fmt.Errorf("journal: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, snapName(j.lsn.Load()))); err != nil {
		return fmt.Errorf("journal: publish snapshot: %w", err)
	}
	return j.syncDir()
}

// TearTail deliberately writes a torn final record — a full header followed
// by only half the payload — then poisons the journal. It is the proc-crash
// chaos fault's way of dying "mid-write" deterministically, so recovery
// tests exercise exactly the state a power cut leaves behind.
func (j *Journal) TearTail(payload []byte) error {
	if j.err != nil {
		return j.err
	}
	if len(payload) < 2 {
		return fmt.Errorf("journal: torn record needs at least 2 payload bytes")
	}
	frame := encodeFrame(nil, payload)
	torn := frame[:headerSize+len(payload)/2]
	if _, err := j.f.Write(torn); err != nil {
		j.err = fmt.Errorf("journal: tear tail: %w", err)
		return j.err
	}
	if err := j.syncSegment(); err != nil {
		j.err = fmt.Errorf("journal: sync torn tail: %w", err)
		return j.err
	}
	j.err = fmt.Errorf("journal: tail torn on purpose: %w", ErrTornTail)
	return nil
}

// Close syncs and closes the active segment. The journal is unusable after.
func (j *Journal) Close() error {
	if j.f == nil {
		return j.err
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if j.err != nil {
		// A deliberately torn tail is an expected terminal state, not a
		// close failure.
		if errors.Is(j.err, ErrTornTail) {
			return nil
		}
		return j.err
	}
	if syncErr != nil {
		return fmt.Errorf("journal: sync on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: close: %w", closeErr)
	}
	return nil
}

// syncDir fsyncs the journal directory so segment creation and snapshot
// renames are durable (on platforms where directories cannot be fsynced the
// error is reported; Linux — the deployment target — supports it).
func (j *Journal) syncDir() error {
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: open dir for sync: %w", err)
	}
	syncErr := d.Sync()
	if err := d.Close(); err != nil {
		return fmt.Errorf("journal: close dir: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("journal: sync dir: %w", syncErr)
	}
	return nil
}
