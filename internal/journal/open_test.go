package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeSegments writes a journal of n records over 512-byte segments and
// closes it.
func writeSegments(t *testing.T, dir string, n int) {
	t.Helper()
	j, err := Open(dir, Options{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := j.AppendUnsynced([]byte(fmt.Sprintf("record %04d %s", i, bytes.Repeat([]byte{byte('a' + i%26)}, i%40)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMatchesLoadAndCopyingDecoder holds what Open positions a journal at
// and what Load returns to what the copying decoder they used to share reads
// off the same files: the record count (Open's LSN, Load's records, byte for
// byte), the final segment's valid length (where Open appends) and, for every
// closed segment, its length and CRC (the seal Open backfills). On a clean
// journal, a torn final record, a zero-filled tail, and mid-log corruption,
// which both must still refuse with ErrCorrupt; and on a journal that keeps
// one seal, planted with its CRC off by one bit, which Open must keep byte
// for byte: it backfills from the segment only what has no seal.
func TestOpenMatchesLoadAndCopyingDecoder(t *testing.T) {
	lastSeg := func(t *testing.T, dir string) string {
		segs, err := listSegments(dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("want at least 3 segments, got %v (%v)", segs, err)
		}
		return filepath.Join(dir, segName(segs[len(segs)-1]))
	}
	appendBytes := func(t *testing.T, path string, b []byte) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, dir string)
		torn    bool
		corrupt bool
		planted bool // segment 1 keeps a seal whose CRC is off by one bit
	}{
		{name: "clean", damage: func(*testing.T, string) {}},
		{name: "an existing seal", planted: true, damage: func(*testing.T, string) {}},
		{name: "torn final record", torn: true, damage: func(t *testing.T, dir string) {
			frame := encodeFrame(nil, []byte("a record the crash cut short"))
			appendBytes(t, lastSeg(t, dir), frame[:len(frame)-5])
		}},
		{name: "zero-filled tail", torn: true, damage: func(t *testing.T, dir string) {
			appendBytes(t, lastSeg(t, dir), make([]byte, 64))
		}},
		{name: "mid-log corruption", corrupt: true, damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[headerSize+3] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegments(t, dir, 200)
			tc.damage(t, dir)
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			// What the copying decoder reads off the files before Open
			// touches them.
			var want [][]byte
			var wantSeals []SealInfo
			wantSize := 0
			for i, idx := range segs {
				data, err := os.ReadFile(filepath.Join(dir, segName(idx)))
				if err != nil {
					t.Fatal(err)
				}
				recs, consumed, _ := decodeSegmentCopying(data)
				want = append(want, recs...)
				if i < len(segs)-1 {
					wantSeals = append(wantSeals, SealInfo{Segment: idx, Bytes: int64(consumed), CRC: crc32.ChecksumIEEE(data[:consumed])})
				}
				wantSize = consumed
			}
			st, loadErr := Load(dir)
			for _, idx := range segs {
				if err := os.Remove(filepath.Join(dir, sealName(idx))); err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Fatal(err)
				}
			}
			var planted []byte
			if tc.planted {
				wantSeals[0].CRC ^= 1
				payload, err := json.Marshal(wantSeals[0])
				if err != nil {
					t.Fatal(err)
				}
				planted = encodeFrame(nil, payload)
				if err := os.WriteFile(filepath.Join(dir, sealName(segs[0])), planted, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, openErr := Open(dir, Options{SegmentBytes: 512, NoSync: true})
			if tc.corrupt {
				if !errors.Is(loadErr, ErrCorrupt) || !errors.Is(openErr, ErrCorrupt) {
					t.Fatalf("Load: %v, Open: %v; want ErrCorrupt from both", loadErr, openErr)
				}
				return
			}
			if loadErr != nil || openErr != nil {
				t.Fatalf("Load: %v, Open: %v", loadErr, openErr)
			}
			defer j.Close()
			if st.Torn != tc.torn {
				t.Fatalf("Load reports torn=%v, want %v", st.Torn, tc.torn)
			}
			if len(st.Records) != len(want) || j.LSN() != int64(len(want)) {
				t.Fatalf("Load returned %d records and Open is at LSN %d; the copying decoder read %d", len(st.Records), j.LSN(), len(want))
			}
			for i := range want {
				if !bytes.Equal(st.Records[i], want[i]) {
					t.Fatalf("record %d = %q, copying decoder %q", i+1, st.Records[i], want[i])
				}
			}
			if j.segIndex != segs[len(segs)-1] || j.segSize != int64(wantSize) {
				t.Fatalf("Open appends to segment %d at byte %d; want segment %d at byte %d", j.segIndex, j.segSize, segs[len(segs)-1], wantSize)
			}
			if got := j.SealedSegments(); fmt.Sprint(got) != fmt.Sprint(wantSeals) {
				t.Fatalf("Open backfilled seals %v, want %v", got, wantSeals)
			}
			if tc.planted {
				if got, err := os.ReadFile(filepath.Join(dir, sealName(segs[0]))); err != nil || !bytes.Equal(got, planted) {
					t.Fatalf("the planted seal reads %q (%v) after Open, want it untouched: %q", got, err, planted)
				}
			}
		})
	}
}

// TestLoadRecordsOutliveTheirBuffers loads a journal, drops every reference
// to it but the records, collects garbage, and requires each record to be
// the payload that was appended: a record aliases its segment's buffer, and
// the buffer must live as long as the record does. Appending to a record must
// not reach the record after it in the same buffer.
func TestLoadRecordsOutliveTheirBuffers(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 200)
	records := func() [][]byte {
		st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st.Records
	}()
	runtime.GC()
	runtime.GC()
	if len(records) != 200 {
		t.Fatalf("%d records, want 200", len(records))
	}
	spill := bytes.Repeat([]byte{0xff}, headerSize+4) // past the next frame's header, into its payload
	for i := range records {
		_ = append(records[i], spill...)
	}
	for i, rec := range records {
		want := fmt.Sprintf("record %04d %s", i, bytes.Repeat([]byte{byte('a' + i%26)}, i%40))
		if string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i+1, rec, want)
		}
	}
}
