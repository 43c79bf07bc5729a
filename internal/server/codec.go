// Wire codec of /admit: the request decoder and the response appender. The
// format is the JSON that encoding/json reads into AdmitRequest and writes
// from AdmitResponse; this file parses and prints exactly those shapes, with
// no reflection and no intermediate values, into buffers the handler reuses.
// reference_test.go keeps the encoding/json path it replaced as the oracle:
// FuzzAdmitDecode holds the decoder to the same requests (or the same
// refusal), TestAdmitEncodeMatchesReference the appender to the same bytes.
// OPERATIONS.md ("/admit wire format") lists what the decoder refuses that
// encoding/json accepted.

package server

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"edgerep/internal/workload"
)

// maxAdmitBody caps an /admit body, in bytes. A request object is about 70
// bytes, so the cap holds some 15 000 offers: sixty full epochs at the default
// -epoch-max of 256.
const maxAdmitBody = 1 << 20

// maxNesting is encoding/json's nesting limit: a body with more than this
// many open objects and arrays at once is refused, as encoding/json refuses it.
const maxNesting = 10000

// errNoQuery refuses a request that names no query: a null request, or an
// object with no "query" key or only null ones.
var errNoQuery = errors.New("request names no query")

// decodeAdmit parses an /admit body: one AdmitRequest object (single) or a
// non-empty array of them, appended to dst[:0]. It reads the first JSON value
// of the body and ignores whatever follows it, as json.Decoder.Decode did. A
// key matches a field the way encoding/json matches it (exactly, else under
// its case folding, escapes decoded); the last of duplicate keys wins;
// unknown keys are skipped whatever their (well-formed) value; a null field
// leaves the zero value; integer fields refuse fractions, exponents and
// overflow. Every request must name a query.
func decodeAdmit(data []byte, dst []AdmitRequest) (reqs []AdmitRequest, single bool, err error) {
	d := admitDecoder{data: data}
	d.space()
	reqs = dst[:0]
	switch d.peek() {
	case '{':
		reqs = append(reqs, AdmitRequest{})
		return reqs, true, d.request(&reqs[0], 1)
	case '[':
		reqs, err = d.batch(reqs)
		if err == nil && len(reqs) == 0 {
			err = errors.New("empty batch")
		}
		return reqs, false, err
	}
	return reqs, false, d.fail("want a request object or an array of them")
}

// admitDecoder is a cursor over a request body.
type admitDecoder struct {
	data []byte
	i    int
}

// fail reports a decode failure at the cursor's byte offset.
func (d *admitDecoder) fail(msg string) error { return fmt.Errorf("%s at byte %d", msg, d.i) }

// peek returns the byte at the cursor, 0 at the end of the body (0 starts no
// JSON token, so it fails every test a caller makes).
func (d *admitDecoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

// space skips JSON whitespace.
func (d *admitDecoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// batch parses an array of request objects; the cursor is at '['.
func (d *admitDecoder) batch(reqs []AdmitRequest) ([]AdmitRequest, error) {
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return reqs, nil
	}
	for {
		d.space()
		switch d.peek() {
		case '{':
		case 'n':
			return reqs, errNoQuery
		default:
			return reqs, d.fail("want a request object in the batch")
		}
		reqs = append(reqs, AdmitRequest{})
		if err := d.request(&reqs[len(reqs)-1], 2); err != nil {
			return reqs, err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return reqs, nil
		default:
			return reqs, d.fail("want , or ] after a batch member")
		}
	}
}

// Fields of AdmitRequest, by JSON key.
const (
	fieldOther = iota
	fieldQuery
	fieldAtSec
	fieldHoldSec
	fieldTerm
)

var requestKeys = [...]string{fieldQuery: "query", fieldAtSec: "at_sec", fieldHoldSec: "hold_sec", fieldTerm: "term"}

// request parses one request object at nesting depth depth into req; the
// cursor is at '{'.
func (d *admitDecoder) request(req *AdmitRequest, depth int) error {
	d.i++
	named := false
	d.space()
	if d.peek() == '}' {
		return errNoQuery
	}
	for {
		d.space()
		key, esc, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.fail("want : after an object key")
		}
		d.i++
		d.space()
		switch requestField(key, esc) {
		case fieldQuery:
			v, set, err := d.integer()
			if err != nil {
				return err
			}
			if set {
				if int64(int(v)) != v {
					return d.fail("query overflows int")
				}
				req.Query, named = workload.QueryID(v), true
			}
		case fieldTerm:
			v, set, err := d.integer()
			if err != nil {
				return err
			}
			if set {
				req.Term = v
			}
		case fieldAtSec:
			if err := d.float(&req.AtSec); err != nil {
				return err
			}
		case fieldHoldSec:
			if err := d.float(&req.HoldSec); err != nil {
				return err
			}
		default:
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			if !named {
				return errNoQuery
			}
			return nil
		default:
			return d.fail("want , or } after an object member")
		}
	}
}

// requestField names the AdmitRequest field a key (string content, escapes
// undecoded) sets, or fieldOther.
func requestField(key []byte, esc bool) int {
	if !esc {
		switch string(key) {
		case "query":
			return fieldQuery
		case "at_sec":
			return fieldAtSec
		case "hold_sec":
			return fieldHoldSec
		case "term":
			return fieldTerm
		}
	}
	for f := fieldQuery; f < len(requestKeys); f++ {
		if keyFolds(key, requestKeys[f]) {
			return f
		}
	}
	return fieldOther
}

// keyFolds reports whether key (string content, escapes undecoded) equals
// name under encoding/json's key folding: escapes decoded, then ASCII
// letters upper-cased and every other rune replaced by the smallest rune of
// its case-folding orbit, on both sides. name is ASCII.
func keyFolds(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		r, n := rune(key[i]), 1
		switch {
		case r == '\\':
			r, n = unescape(key[i:])
		case r >= utf8.RuneSelf:
			r, n = utf8.DecodeRune(key[i:])
		}
		i += n
		if j == len(name) || foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
		j++
	}
	return j == len(name)
}

// unescape decodes the escape at the start of s, which str has validated.
// A UTF-16 surrogate decodes to utf8.RuneError: paired or not, it does not
// spell a rune that folds to ASCII, which is all keyFolds needs.
func unescape(s []byte) (rune, int) {
	switch c := s[1]; c {
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		var r rune
		for _, h := range s[2:6] {
			r = r<<4 | rune(unhex(h))
		}
		if r >= 0xd800 && r < 0xe000 {
			return utf8.RuneError, 6
		}
		return r, 6
	default: // '"', '\\', '/'
		return rune(c), 2
	}
}

// foldRune is encoding/json's key folding of one rune.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xff
}

// str scans a string at the cursor and returns its content, escapes
// undecoded; esc reports whether it holds any. It refuses what the JSON
// grammar refuses: control characters, unknown escapes, short \u escapes, a
// missing closing quote. Bytes that are not UTF-8 pass, as they pass
// encoding/json.
func (d *admitDecoder) str() (s []byte, esc bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("want a string")
	}
	start := d.i + 1
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.i = i + 1
			return d.data[start:i], esc, nil
		case c == '\\':
			esc = true
			if i+1 == len(d.data) {
				d.i = i
				return nil, false, d.fail("unterminated string")
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d.data) || unhex(d.data[i+2])|unhex(d.data[i+3])|unhex(d.data[i+4])|unhex(d.data[i+5]) > 0xf {
					d.i = i
					return nil, false, d.fail("bad \\u escape")
				}
				i += 6
			default:
				d.i = i
				return nil, false, d.fail("bad escape")
			}
		case c < 0x20:
			d.i = i
			return nil, false, d.fail("control character in string")
		default:
			i++
		}
	}
	d.i = len(d.data)
	return nil, false, d.fail("unterminated string")
}

// literal consumes word (true, false or null) at the cursor.
func (d *admitDecoder) literal(word string) error {
	if len(d.data)-d.i < len(word) || string(d.data[d.i:d.i+len(word)]) != word {
		return d.fail("bad literal")
	}
	d.i += len(word)
	return nil
}

// number scans a number literal at the cursor; integral reports that it has
// neither a fraction nor an exponent.
func (d *admitDecoder) number() (lit []byte, integral bool, err error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.fail("bad number")
	}
	integral = true
	if d.peek() == '.' {
		d.i++
		if !d.digits() {
			return nil, false, d.fail("bad number fraction")
		}
		integral = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.digits() {
			return nil, false, d.fail("bad number exponent")
		}
		integral = false
	}
	return d.data[start:d.i], integral, nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *admitDecoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// integer reads an int64 field's value; set is false for null. A string,
// bool, object or array is refused, as are fractions, exponents and values
// outside int64.
func (d *admitDecoder) integer() (v int64, set bool, err error) {
	if d.peek() == 'n' {
		return 0, false, d.literal("null")
	}
	lit, integral, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if !integral {
		return 0, false, d.fail("want an integer")
	}
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	if len(digits) > 18 {
		// Beyond the digits an int64 always holds; let strconv judge the
		// range (the conversion allocates nothing for ≤32 bytes).
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return 0, false, d.fail("integer overflows int64")
		}
		return v, true, nil
	}
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true, nil
}

// float reads a float64 field's value into f; null leaves f alone. A value
// outside float64's range is refused, like anything that is not a number.
func (d *admitDecoder) float(f *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, _, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.fail("number out of float64 range")
	}
	*f = v
	return nil
}

// skip validates and passes over the value at the cursor, a value nested at
// depth (an object or array there is the depth-th open one).
func (d *admitDecoder) skip(depth int) error {
	switch d.peek() {
	case '{':
		if depth > maxNesting {
			return d.fail("nesting too deep")
		}
		d.i++
		d.space()
		if d.peek() == '}' {
			d.i++
			return nil
		}
		for {
			d.space()
			if _, _, err := d.str(); err != nil {
				return err
			}
			d.space()
			if d.peek() != ':' {
				return d.fail("want : after an object key")
			}
			d.i++
			d.space()
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.space()
			switch d.peek() {
			case ',':
				d.i++
			case '}':
				d.i++
				return nil
			default:
				return d.fail("want , or } after an object member")
			}
		}
	case '[':
		if depth > maxNesting {
			return d.fail("nesting too deep")
		}
		d.i++
		d.space()
		if d.peek() == ']' {
			d.i++
			return nil
		}
		for {
			d.space()
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.space()
			switch d.peek() {
			case ',':
				d.i++
			case ']':
				d.i++
				return nil
			default:
				return d.fail("want , or ] after an array element")
			}
		}
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, _, err := d.number()
	return err
}

// errNonFinite refuses a response holding a NaN or an infinity, which
// encoding/json cannot write either.
var errNonFinite = errors.New("response holds a non-finite number")

// appendAdmitReply appends the /admit reply for resps: the lone response of
// a single request, else the array, each exactly as json.Encoder.Encode writes
// it (HTML-safe strings, its float format, a trailing newline). On error
// nothing is to be written, as Encode writes nothing when it fails.
func appendAdmitReply(b []byte, resps []AdmitResponse, single bool) ([]byte, error) {
	var err error
	if single {
		b, err = appendResponse(b, &resps[0])
		return append(b, '\n'), err
	}
	b = append(b, '[')
	for i := range resps {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendResponse(b, &resps[i]); err != nil {
			return b, err
		}
	}
	return append(b, ']', '\n'), nil
}

// appendResponse appends one AdmitResponse object: its fields in
// declaration order, the omitempty ones only when non-empty.
func appendResponse(b []byte, r *AdmitResponse) ([]byte, error) {
	if math.IsInf(r.AtSec, 0) || math.IsNaN(r.AtSec) {
		return b, errNonFinite
	}
	b = append(b, `{"query":`...)
	b = strconv.AppendInt(b, int64(r.Query), 10)
	b = append(b, `,"admitted":`...)
	b = strconv.AppendBool(b, r.Admitted)
	b = append(b, `,"at_sec":`...)
	b = appendFloat(b, r.AtSec)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, r.Epoch, 10)
	if len(r.Assignments) > 0 {
		b = append(b, `,"assignments":[`...)
		for i, a := range r.Assignments {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"dataset":`...)
			b = strconv.AppendInt(b, int64(a.Dataset), 10)
			b = append(b, `,"node":`...)
			b = strconv.AppendInt(b, int64(a.Node), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendString(b, string(r.Reason))
	}
	b = append(b, `,"dataset":`...)
	b = strconv.AppendInt(b, r.Dataset, 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, r.Node, 10)
	if len(r.StageNs) > 0 {
		b = append(b, `,"stage_ns":[`...)
		for i, ns := range r.StageNs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, ns, 10)
		}
		b = append(b, ']')
	}
	if r.Term != 0 {
		b = append(b, `,"term":`...)
		b = strconv.AppendInt(b, r.Term, 10)
	}
	return append(b, '}'), nil
}

// encoding/json writes a float64 whose magnitude lies outside
// [floatPlainMin, floatPlainMax) in 'e' form (zero excepted).
const floatPlainMin, floatPlainMax = 1e-6, 1e21

// appendFloat writes a finite float64 as encoding/json does: the shortest
// repr that round-trips, in 'f' form inside its plain range, else in 'e'
// form with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < floatPlainMin || abs >= floatPlainMax) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString writes s as an HTML-safe JSON string, as encoding/json does
// by default: ", \ and control characters escaped (the short forms for \b,
// \f, \n, \r, \t), <, > and & as \u003c, \u003e, \u0026, U+2028 and U+2029
// escaped, and each byte that is not UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
