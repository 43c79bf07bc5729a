// The WAL record codec. A payload's first byte names its format: '{' is v0,
// the JSON object every journal written before the binary codec holds, and
// 0x01 is v1, the only format the engine writes:
//
//	offer    01 01|02 at hold query [n (dataset node)×n]    01 admitted (pairs follow), 02 rejected
//	crash    01 03 at node lost repaired evicted
//	restore  01 04 at node
//
// at and hold are the little-endian bits of a float64; every other field is
// an unsigned varint (binary.AppendUvarint). Nothing else is written: replay
// re-derives the rest, and the trace a replay emits is the engine's own.
// Both formats decode to the same JournalRecord, so replay, the federation
// audit and `edgerepd dump` never depend on which one a record was written in.

package online

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"edgerep/internal/graph"
	"edgerep/internal/workload"
)

// Record kinds: the engine's three externally-driven inputs.
const (
	RecordOffer   = "offer"
	RecordCrash   = "crash"
	RecordRestore = "restore"
)

// ErrBadRecord marks a WAL payload that is not a well-formed record in either
// format. Every DecodeRecord error wraps it.
var ErrBadRecord = errors.New("online: malformed journal record")

// JournalRecord is one decoded WAL entry: the input the engine was given and
// the outcome it committed to, as far as replay needs them to re-apply the
// input and cross-check the outcome.
type JournalRecord struct {
	Kind string  `json:"kind"`
	At   float64 `json:"at"`
	// Hold is the offer's HoldSec (offers only).
	Hold float64 `json:"hold,omitempty"`
	// Query is the offered query; -1 on crash and restore records.
	Query workload.QueryID `json:"query"`
	// Node is the crashed or restored node; -1 on offers.
	Node graph.NodeID `json:"node"`
	// Admitted and Assignments are an offer's decision: for an admission,
	// the node serving each demand, in the query's demand order.
	Admitted    bool         `json:"admitted,omitempty"`
	Assignments []DemandNode `json:"assignments,omitempty"`
	// LostReplicas, Repaired, Evicted summarize a crash's repair phase; a
	// replayed crash must reproduce them exactly.
	LostReplicas int `json:"lost_replicas,omitempty"`
	Repaired     int `json:"repaired,omitempty"`
	Evicted      int `json:"evicted,omitempty"`
}

// DemandNode is one demand of an admitted offer: the dataset and the node
// that serves it.
type DemandNode struct {
	Dataset workload.DatasetID `json:"dataset"`
	Node    graph.NodeID       `json:"node"`
}

// The v1 version byte and kind bytes.
const (
	formatV1 byte = 0x01

	kindAdmit   byte = 1
	kindReject  byte = 2
	kindCrash   byte = 3
	kindRestore byte = 4
)

// appendRecord appends rec's v1 encoding to dst. rec comes from the engine:
// one of the three kinds, every ID and count it encodes non-negative.
func appendRecord(dst []byte, rec *JournalRecord) []byte {
	var kind byte
	switch {
	case rec.Kind == RecordOffer && rec.Admitted:
		kind = kindAdmit
	case rec.Kind == RecordOffer:
		kind = kindReject
	case rec.Kind == RecordCrash:
		kind = kindCrash
	case rec.Kind == RecordRestore:
		kind = kindRestore
	default:
		panic(fmt.Sprintf("online: journal record of unknown kind %q", rec.Kind))
	}
	dst = append(dst, formatV1, kind)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.At))
	switch kind {
	case kindAdmit, kindReject:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Hold))
		dst = binary.AppendUvarint(dst, uint64(rec.Query))
		if kind == kindAdmit {
			dst = binary.AppendUvarint(dst, uint64(len(rec.Assignments)))
			for _, a := range rec.Assignments {
				dst = binary.AppendUvarint(dst, uint64(a.Dataset))
				dst = binary.AppendUvarint(dst, uint64(a.Node))
			}
		}
	case kindCrash:
		dst = binary.AppendUvarint(dst, uint64(rec.Node))
		dst = binary.AppendUvarint(dst, uint64(rec.LostReplicas))
		dst = binary.AppendUvarint(dst, uint64(rec.Repaired))
		dst = binary.AppendUvarint(dst, uint64(rec.Evicted))
	case kindRestore:
		dst = binary.AppendUvarint(dst, uint64(rec.Node))
	}
	return dst
}

// DecodeRecord decodes one WAL payload of either format into rec, reusing
// rec.Assignments' backing array. A record decodes whole or not at all: on
// error, which always wraps ErrBadRecord, rec is left zero.
func DecodeRecord(payload []byte, rec *JournalRecord) error {
	pairs := rec.Assignments[:0]
	*rec = JournalRecord{Assignments: pairs}
	var err error
	switch {
	case len(payload) == 0:
		err = errors.New("empty payload")
	case payload[0] == '{':
		err = decodeV0(payload, rec)
	case payload[0] == formatV1:
		err = decodeV1(payload[1:], rec)
	default:
		err = fmt.Errorf("unknown format byte %#x", payload[0])
	}
	if err != nil {
		*rec = JournalRecord{}
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return nil
}

// v1Reader consumes a v1 payload field by field; the first malformed field
// sticks in err and every later read returns zero.
type v1Reader struct {
	b   []byte
	err error
}

func (r *v1Reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errors.New("truncated float")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if math.IsNaN(x) || math.IsInf(x, 0) {
		r.err = fmt.Errorf("non-finite float %v", x)
		return 0
	}
	return x
}

// uint reads one varint no larger than limit, in its shortest encoding (the
// one appendRecord writes, so a decoded record re-encodes to its own bytes).
func (r *v1Reader) uint(limit int) int {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errors.New("truncated varint")
	case n < 0:
		r.err = errors.New("varint overflows 64 bits")
	case n > 1 && r.b[n-1] == 0:
		r.err = errors.New("varint not in its shortest form")
	case x > uint64(limit):
		r.err = fmt.Errorf("value %d out of range", x)
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return int(x)
}

// decodeV1 decodes a v1 payload after its version byte.
func decodeV1(b []byte, rec *JournalRecord) error {
	if len(b) == 0 {
		return errors.New("missing kind byte")
	}
	kind := b[0]
	r := v1Reader{b: b[1:]}
	rec.At = r.float()
	switch kind {
	case kindAdmit, kindReject:
		rec.Kind, rec.Node = RecordOffer, -1
		rec.Hold = r.float()
		rec.Query = workload.QueryID(r.uint(math.MaxInt32))
		if kind == kindAdmit {
			rec.Admitted = true
			// A pair takes at least two bytes, which bounds what a corrupt
			// count can make the decoder allocate.
			n := r.uint(len(r.b) / 2)
			for i := 0; i < n; i++ {
				ds := workload.DatasetID(r.uint(math.MaxInt32))
				v := graph.NodeID(r.uint(math.MaxInt32))
				rec.Assignments = append(rec.Assignments, DemandNode{Dataset: ds, Node: v})
			}
		}
	case kindCrash:
		rec.Kind, rec.Query = RecordCrash, -1
		rec.Node = graph.NodeID(r.uint(math.MaxInt32))
		rec.LostReplicas = r.uint(math.MaxInt32)
		rec.Repaired = r.uint(math.MaxInt32)
		rec.Evicted = r.uint(math.MaxInt32)
	case kindRestore:
		rec.Kind, rec.Query = RecordRestore, -1
		rec.Node = graph.NodeID(r.uint(math.MaxInt32))
	default:
		return fmt.Errorf("unknown v1 record kind %d", kind)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return nil
}

// recordV0 is what replay reads of a v0 record: the JSON object with the
// committed outcome in trace-event shape.
type recordV0 struct {
	Kind    string  `json:"kind"`
	At      float64 `json:"at"`
	Hold    float64 `json:"hold"`
	Query   int64   `json:"query"`
	Node    int64   `json:"node"`
	Outcome *struct {
		Event    string  `json:"event"`
		Datasets []int64 `json:"datasets"`
		Nodes    []int64 `json:"nodes"`
	} `json:"outcome"`
	LostReplicas int `json:"lost_replicas"`
	Repaired     int `json:"repaired"`
	Evicted      int `json:"evicted"`
}

// decodeV0 decodes a v0 (JSON) payload.
func decodeV0(payload []byte, rec *JournalRecord) error {
	var v0 recordV0
	if err := json.Unmarshal(payload, &v0); err != nil {
		return err
	}
	rec.Kind, rec.At, rec.Hold = v0.Kind, v0.At, v0.Hold
	rec.Query, rec.Node = workload.QueryID(v0.Query), graph.NodeID(v0.Node)
	switch v0.Kind {
	case RecordOffer:
		if v0.Outcome == nil {
			return errors.New("offer without outcome")
		}
		switch v0.Outcome.Event {
		case "admit":
			if len(v0.Outcome.Datasets) != len(v0.Outcome.Nodes) {
				return fmt.Errorf("admit outcome has %d datasets and %d nodes", len(v0.Outcome.Datasets), len(v0.Outcome.Nodes))
			}
			rec.Admitted = true
			for i, ds := range v0.Outcome.Datasets {
				rec.Assignments = append(rec.Assignments, DemandNode{Dataset: workload.DatasetID(ds), Node: graph.NodeID(v0.Outcome.Nodes[i])})
			}
		case "reject":
		default:
			return fmt.Errorf("offer outcome %q", v0.Outcome.Event)
		}
	case RecordCrash:
		rec.LostReplicas, rec.Repaired, rec.Evicted = v0.LostReplicas, v0.Repaired, v0.Evicted
	case RecordRestore:
	default:
		return fmt.Errorf("unknown kind %q", v0.Kind)
	}
	return nil
}
