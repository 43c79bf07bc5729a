package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzJournalDecode holds DecodeSegment to its contract on arbitrary bytes:
// never panic, and either decode a valid prefix cleanly or stop at a typed
// ErrTornTail / ErrCorrupt, with payloads that alias data without reaching
// past their frames. Seeds cover clean logs, truncation, bit-flips, and
// spliced segments; the fuzzer mutates from there.
func FuzzJournalDecode(f *testing.F) {
	frame := func(payloads ...string) []byte {
		var b []byte
		for _, p := range payloads {
			b = encodeFrame(b, []byte(p))
		}
		return b
	}
	f.Add([]byte(nil))
	f.Add(frame("hello"))
	f.Add(frame("a", "bb", "ccc", "dddd"))
	f.Add(frame("alpha", "beta")[:11])             // truncated payload
	f.Add(frame("alpha")[:5])                      // truncated header
	f.Add(append(frame("x"), make([]byte, 32)...)) // zero-filled tail
	flipped := frame("flip", "me")
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped)
	spliced := append(frame("seg-one"), frame("seg-two", "seg-three")[3:]...)
	f.Add(spliced)
	var oversize [headerSize]byte
	binary.LittleEndian.PutUint32(oversize[0:], 1<<30)
	f.Add(oversize[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, err := DecodeSegment(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
		} else if consumed != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", consumed, len(data))
		}
		// The decoded prefix must re-encode to exactly the consumed bytes:
		// decoding is the inverse of framing on the valid prefix.
		var re []byte
		for _, r := range recs {
			re = encodeFrame(re, r)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encoded prefix differs: %d vs %d bytes", len(re), consumed)
		}
		// The payloads alias data, each capped at its own frame: appending
		// to one leaves every payload equal to a copy of itself taken
		// before.
		copies := make([][]byte, len(recs))
		for i, r := range recs {
			copies[i] = bytes.Clone(r)
		}
		spill := bytes.Repeat([]byte{0xa5}, headerSize+4) // past the next frame's header, into its payload
		for _, r := range recs {
			_ = append(r, spill...)
		}
		for i, r := range recs {
			if !bytes.Equal(r, copies[i]) {
				t.Fatalf("record %d changed after appending to the records: %q, was %q", i, r, copies[i])
			}
		}
	})
}
