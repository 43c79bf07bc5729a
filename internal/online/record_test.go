package online

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"edgerep/internal/journal"
)

// churnRecords loads the two record streams ChurnJournals writes: v0, then v1.
func churnRecords(t testing.TB, seed int64, nq int) (v0, v1 [][]byte) {
	t.Helper()
	dirs, _ := ChurnJournals(t, seed, nq, 0)
	var recs [2][][]byte
	for i, dir := range dirs {
		st, err := journal.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = st.Records
	}
	return recs[0], recs[1]
}

// TestRecordCodecMatchesJSON is the codec's oracle: on a churned history —
// admits and rejects, crashes that repair and evict, a no-op crash, restores,
// queries demanding one dataset twice — every record decodes to the same
// JournalRecord from the bytes the v0 reference encoder wrote for it and from
// the v1 bytes the engine wrote, and the v1 bytes are the record's encoding.
func TestRecordCodecMatchesJSON(t *testing.T) {
	v0, v1 := churnRecords(t, 9, 40)
	if len(v0) != len(v1) {
		t.Fatalf("%d v0 records, %d v1 records", len(v0), len(v1))
	}
	var admits, rejects, repairs, evictions, noops, restores, twice int
	for i := range v0 {
		if v0[i][0] != '{' || v1[i][0] != formatV1 {
			t.Fatalf("record %d: format bytes %q and %#x", i+1, v0[i][0], v1[i][0])
		}
		var r0, r1 JournalRecord
		if err := DecodeRecord(v0[i], &r0); err != nil {
			t.Fatalf("record %d: v0: %v", i+1, err)
		}
		if err := DecodeRecord(v1[i], &r1); err != nil {
			t.Fatalf("record %d: v1: %v", i+1, err)
		}
		if !reflect.DeepEqual(r0, r1) {
			t.Fatalf("record %d decodes differently:\n v0 %s -> %+v\n v1 %x -> %+v", i+1, v0[i], r0, v1[i], r1)
		}
		if enc := appendRecord(nil, &r1); !bytes.Equal(enc, v1[i]) {
			t.Fatalf("record %d re-encodes to %x, was written as %x", i+1, enc, v1[i])
		}
		switch {
		case r1.Kind == RecordOffer && r1.Admitted:
			admits++
			seen := map[int]bool{}
			for _, a := range r1.Assignments {
				if seen[int(a.Dataset)] {
					twice++
				}
				seen[int(a.Dataset)] = true
			}
		case r1.Kind == RecordOffer:
			rejects++
		case r1.Kind == RecordCrash:
			if r1.LostReplicas == 0 && r1.Repaired == 0 && r1.Evicted == 0 {
				noops++
			}
			repairs += r1.Repaired
			evictions += r1.Evicted
		case r1.Kind == RecordRestore:
			restores++
		}
	}
	if admits == 0 || rejects == 0 || repairs == 0 || evictions == 0 || noops == 0 || restores == 0 || twice == 0 {
		t.Fatalf("history too tame: %d admits (%d serving a dataset twice), %d rejects, %d repairs, %d evictions, %d no-op crashes, %d restores",
			admits, twice, rejects, repairs, evictions, noops, restores)
	}
}

// TestDecodeRecordRefuses holds the v1 decoder to the bytes the encoder
// writes: trailing bytes, unknown kinds and formats, overlong, overflowing
// or out-of-range varints and non-finite times are typed errors, and nothing
// of the record is left behind.
func TestDecodeRecordRefuses(t *testing.T) {
	restore := appendRecord(nil, &JournalRecord{Kind: RecordRestore, At: 2.5, Node: 7})
	f64 := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown format", []byte{0x02, kindRestore}},
		{"no kind", []byte{formatV1}},
		{"unknown kind", cat([]byte{formatV1, 9}, f64(2.5), []byte{7})},
		{"kind zero", cat([]byte{formatV1, 0}, f64(2.5), []byte{7})},
		{"trailing byte", append(restore, 0)},
		{"truncated time", restore[:6]},
		{"truncated varint", cat([]byte{formatV1, kindRestore}, f64(2.5), []byte{0x80})},
		{"varint overflow", cat([]byte{formatV1, kindRestore}, f64(2.5), bytes.Repeat([]byte{0xff}, 9), []byte{0x7f})},
		{"overlong varint", cat([]byte{formatV1, kindRestore}, f64(2.5), []byte{0x87, 0x00})},
		{"node out of range", cat([]byte{formatV1, kindRestore}, f64(2.5), binary.AppendUvarint(nil, 1<<31))},
		{"NaN time", cat([]byte{formatV1, kindRestore}, f64(math.NaN()), []byte{7})},
		{"pair count past the payload", cat([]byte{formatV1, kindAdmit}, f64(1), f64(0), []byte{3, 200, 1, 2})},
		{"v0 not JSON", []byte("{\"kind\":")},
		{"v0 unknown kind", []byte(`{"kind":"rewind","at":1,"query":-1,"node":3}`)},
		{"v0 offer without outcome", []byte(`{"kind":"offer","at":1,"query":3,"node":-1}`)},
		{"v0 lopsided admit", []byte(`{"kind":"offer","at":1,"query":3,"node":-1,"outcome":{"event":"admit","datasets":[1,2],"nodes":[4]}}`)},
	} {
		rec := JournalRecord{Kind: RecordOffer, Assignments: []DemandNode{{1, 2}}}
		err := DecodeRecord(tc.payload, &rec)
		if !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", tc.name, err)
		}
		if !reflect.DeepEqual(rec, JournalRecord{}) {
			t.Errorf("%s: left %+v behind", tc.name, rec)
		}
	}
	var rec JournalRecord
	if err := DecodeRecord(restore, &rec); err != nil || !reflect.DeepEqual(rec, JournalRecord{Kind: RecordRestore, At: 2.5, Query: -1, Node: 7}) {
		t.Fatalf("the well-formed control decodes to %+v, %v", rec, err)
	}
}

// FuzzRecordDecode holds DecodeRecord to its contract on arbitrary bytes: it
// never panics, an error wraps ErrBadRecord and leaves a zero record, and a
// v1 payload that decodes is the encoding of what it decodes to.
func FuzzRecordDecode(f *testing.F) {
	v0, v1 := churnRecords(f, 9, 20)
	for i := range v0 {
		f.Add(v0[i])
		f.Add(v1[i])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec JournalRecord
		err := DecodeRecord(payload, &rec)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("untyped error %v", err)
			}
			if !reflect.DeepEqual(rec, JournalRecord{}) {
				t.Fatalf("error %v left a partial record %+v", err, rec)
			}
			return
		}
		if payload[0] == formatV1 {
			if enc := appendRecord(nil, &rec); !bytes.Equal(enc, payload) {
				t.Fatalf("%x decodes to %+v, which encodes to %x", payload, rec, enc)
			}
		}
	})
}
