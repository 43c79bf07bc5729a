// Segment sealing: the shipping-safe side of the journal. When the active
// segment rotates, the closed segment is immutable — but a reader racing the
// writer cannot tell a closed segment from one that is mid-append, and a
// process that dies between close and create can leave the final segment in
// either state. Sealing makes the distinction durable: rotation publishes a
// seal record (wal-%08d.seal) naming the sealed segment's exact byte length
// and CRC32, written via temp-file + rename like a snapshot. A shipper that
// only reads segments with a valid seal — and only the first seal.Bytes of
// them, verified against seal.CRC — can never observe a torn tail, no matter
// where the writer is in its rotation (TestSealShipMidRotation races exactly
// this). Open backfills seals for any closed segment that predates sealing
// or lost its seal to a crash between close and publish.

package journal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const sealSuffix = ".seal"

// SealInfo describes one sealed (immutable, fully synced) segment: its
// index, exact byte length, and the CRC32 (IEEE) of those bytes. It is the
// unit of WAL shipping — a follower resumes by segment index and verifies
// every shipped copy against Bytes and CRC before replaying it.
type SealInfo struct {
	Segment int    `json:"segment"`
	Bytes   int64  `json:"bytes"`
	CRC     uint32 `json:"crc"`
}

func sealName(index int) string { return fmt.Sprintf("%s%08d%s", segPrefix, index, sealSuffix) }

// SealedSegments returns the seals published so far, ascending by segment
// index. The active segment is never in the list. Safe to call concurrently
// with Append/rotate — this is the one read path the single-writer journal
// sanctions for other goroutines (the /ship handler), because sealed
// segments and the seal list itself are append-only.
func (j *Journal) SealedSegments() []SealInfo {
	j.sealMu.Lock()
	defer j.sealMu.Unlock()
	return append([]SealInfo(nil), j.seals...)
}

// publishSeal durably records that segment index is closed at size bytes
// with the given CRC: temp file, fsync, rename, directory sync — a crash at
// any point leaves either no seal or a complete one, never a torn seal.
func (j *Journal) publishSeal(index int, size int64, crc uint32) error {
	info := SealInfo{Segment: index, Bytes: size, CRC: crc}
	payload, err := json.Marshal(info)
	if err != nil {
		return fmt.Errorf("journal: marshal seal %d: %w", index, err)
	}
	tmp, err := os.CreateTemp(j.dir, "seal-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: seal temp file: %w", err)
	}
	frame := encodeFrame(nil, payload)
	if _, err := tmp.Write(frame); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			return fmt.Errorf("journal: close failed seal: %w", cerr)
		}
		return fmt.Errorf("journal: write seal %d: %w", index, err)
	}
	if err := tmp.Sync(); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			return fmt.Errorf("journal: close failed seal: %w", cerr)
		}
		return fmt.Errorf("journal: sync seal %d: %w", index, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: close seal %d: %w", index, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, sealName(index))); err != nil {
		return fmt.Errorf("journal: publish seal %d: %w", index, err)
	}
	if err := j.syncDir(); err != nil {
		return err
	}
	j.sealMu.Lock()
	defer j.sealMu.Unlock()
	j.seals = append(j.seals, info)
	return nil
}

// ListSeals reads every seal record in dir, ascending by segment index. A
// seal file that fails to decode is reported as an error rather than
// skipped: a shipper silently ignoring a damaged seal would stall behind it
// forever without anyone noticing.
func ListSeals(dir string) ([]SealInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: scan seals in %s: %w", dir, err)
	}
	var out []SealInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, sealSuffix) {
			continue
		}
		info, err := readSeal(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Segment < out[k].Segment })
	return out, nil
}

// readSeal decodes one seal file: a single valid frame whose payload is the
// SealInfo JSON, nothing more.
func readSeal(path string) (SealInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SealInfo{}, fmt.Errorf("journal: read seal %s: %w", path, err)
	}
	recs, n, decErr := DecodeSegment(data)
	if decErr != nil || len(recs) != 1 || n != len(data) {
		return SealInfo{}, fmt.Errorf("journal: seal %s is damaged: %w", path, ErrCorrupt)
	}
	var info SealInfo
	if err := json.Unmarshal(recs[0], &info); err != nil {
		return SealInfo{}, fmt.Errorf("journal: decode seal %s: %w", path, err)
	}
	return info, nil
}

// ReadSealedSegment returns exactly the sealed bytes of one segment,
// verified against the seal's length and CRC. It is safe against a live
// writer: only seal.Bytes are read even if the file has grown past the seal
// (which cannot happen for a correctly sealed segment, but a verifier should
// not have to trust that), and a CRC mismatch is corruption, never a torn
// tail.
func ReadSealedSegment(dir string, seal SealInfo) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, segName(seal.Segment)))
	if err != nil {
		return nil, fmt.Errorf("journal: read sealed segment %d: %w", seal.Segment, err)
	}
	if int64(len(data)) > seal.Bytes {
		data = data[:seal.Bytes]
	}
	if err := VerifySealedBytes(data, seal); err != nil {
		return nil, err
	}
	return data, nil
}

// VerifySealedBytes checks that data is exactly the sealed segment the seal
// describes — right length, matching CRC. Shipping transports call this on
// every segment they move before a single record is replayed from it.
func VerifySealedBytes(data []byte, seal SealInfo) error {
	if int64(len(data)) != seal.Bytes {
		return fmt.Errorf("journal: sealed segment %d has %d bytes, seal says %d: %w",
			seal.Segment, len(data), seal.Bytes, ErrCorrupt)
	}
	if crc32.ChecksumIEEE(data) != seal.CRC {
		return fmt.Errorf("journal: sealed segment %d fails its seal CRC: %w", seal.Segment, ErrCorrupt)
	}
	return nil
}

// SnapshotAt reads and verifies the snapshot taken at exactly the given LSN
// (the federation handoff check reads the promotion snapshot at LSN 0 this
// way). A missing or damaged snapshot is an error — callers ask for a
// specific one, unlike Load's best-effort newest-valid scan.
func SnapshotAt(dir string, lsn int64) ([]byte, error) {
	path := filepath.Join(dir, snapName(lsn))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot at LSN %d: %w", lsn, err)
	}
	recs, n, decErr := DecodeSegment(data)
	if decErr != nil || len(recs) != 1 || n != len(data) {
		return nil, fmt.Errorf("journal: snapshot at LSN %d is damaged: %w", lsn, ErrCorrupt)
	}
	return recs[0], nil
}

// backfillSeals takes existing, the seals on disk, and publishes seals for
// every closed segment that lacks one: segments written before sealing
// existed, or whose seal was lost to a crash between segment close and seal
// publish. unsealed maps each such segment's index to its decoded byte length
// (the full file for non-final segments; the valid prefix for a truncated
// final one — which is only closed if a later segment exists) and CRC.
func (j *Journal) backfillSeals(existing []SealInfo, unsealed map[int]sealSource) error {
	j.setSeals(existing)
	idxs := make([]int, 0, len(unsealed))
	for idx := range unsealed {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		src := unsealed[idx]
		if err := j.publishSeal(idx, src.bytes, src.crc); err != nil {
			return err
		}
	}
	// publishSeal appends; restore ascending order after a backfill that
	// filled gaps behind already-listed seals.
	all := j.SealedSegments()
	sort.Slice(all, func(i, k int) bool { return all[i].Segment < all[k].Segment })
	j.setSeals(all)
	return nil
}

func (j *Journal) setSeals(seals []SealInfo) {
	j.sealMu.Lock()
	defer j.sealMu.Unlock()
	j.seals = seals
}

// sealSource is one closed segment awaiting a backfilled seal.
type sealSource struct {
	bytes int64
	crc   uint32
}
