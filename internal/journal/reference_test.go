package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// decodeSegmentCopying is the decoder DecodeSegment replaced, verbatim: the
// same frame checks, but every payload copied out of data. What Open and Load
// position and return is held to it (TestOpenMatchesLoadAndCopyingDecoder).
func decodeSegmentCopying(data []byte) (recs [][]byte, consumed int, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < headerSize {
			return recs, off, fmt.Errorf("incomplete header at offset %d: %w", off, ErrTornTail)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 {
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
