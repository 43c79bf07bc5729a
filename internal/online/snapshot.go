// The snapshot codec. A snapshot payload's first byte names its format: '{'
// is the JSON of EngineState that every journal written before the binary
// codec holds, and 0x01 is v1, the only format the engine writes. v1 is
// EngineState's fields in declaration order, in record.go's primitives:
// a float64 as its little-endian bits, every integer as a shortest-form
// unsigned varint, a bool as one byte 0 or 1.
//
//	01 now peak volume_admitted admitted rejected evicted
//	   n (node ghz)×n                                       used
//	   n (forever at node ghz query dataset)×n              releases
//	   n (dataset m' node×m)×n                              replicas
//	   n (query dataset node)×n                             assignments
//	   n query×n                                            admitted_queries
//	   n total (query admitted m' (query dataset node)×m)×n decisions
//	   n node×n                                             down
//
// n counts the entries that follow. m' is a nullable count: 0 for a nil
// slice, m+1 for m entries, so that a slice JSON writes as null decodes to
// nil and one it writes as [] decodes empty, as they do from JSON; the
// top-level slices are omitempty in JSON and decode to nil when empty from
// either format. total is the sum of the decisions' m, the size of the one
// arena their assignments are decoded into. Decisions are a section of their
// own, one count and one loop, so dropping them from the state drops that
// section alone.

package online

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// ErrBadSnapshot marks a snapshot payload that is not a well-formed
// EngineState in either format. Every DecodeSnapshot error wraps it.
var ErrBadSnapshot = errors.New("online: malformed snapshot")

// snapshotV1 is the binary snapshot's version byte.
const snapshotV1 byte = 0x01

// The fewest bytes one entry of each section takes in v1, which bounds what
// a corrupt count can make the decoder allocate.
const (
	minUse        = 1 + 8
	minRelease    = 1 + 8 + 1 + 8 + 1 + 1
	minReplicaSet = 1 + 1
	minAssignment = 3
	minDecision   = 3
)

// AppendSnapshot appends st's v1 encoding to dst. st comes from StateDump:
// every ID and count non-negative, every float finite.
func AppendSnapshot(dst []byte, st *EngineState) []byte {
	dst = append(dst, snapshotV1)
	dst = appendFloat(dst, st.Now)
	dst = appendFloat(dst, st.Peak)
	dst = appendFloat(dst, st.VolumeAdmitted)
	dst = appendUint(dst, st.Admitted)
	dst = appendUint(dst, st.Rejected)
	dst = appendUint(dst, st.Evicted)
	dst = appendUint(dst, len(st.Used))
	for _, u := range st.Used {
		dst = appendUint(dst, int(u.Node))
		dst = appendFloat(dst, u.GHz)
	}
	dst = appendUint(dst, len(st.Releases))
	for _, r := range st.Releases {
		dst = appendBool(dst, r.Forever)
		dst = appendFloat(dst, r.At)
		dst = appendUint(dst, int(r.Node))
		dst = appendFloat(dst, r.GHz)
		dst = appendUint(dst, int(r.Query))
		dst = appendUint(dst, int(r.Dataset))
	}
	dst = appendUint(dst, len(st.Replicas))
	for _, rs := range st.Replicas {
		dst = appendUint(dst, int(rs.Dataset))
		dst = appendNullableCount(dst, rs.Nodes == nil, len(rs.Nodes))
		for _, v := range rs.Nodes {
			dst = appendUint(dst, int(v))
		}
	}
	dst = appendAssignments(appendUint(dst, len(st.Assignments)), st.Assignments)
	dst = appendUint(dst, len(st.AdmittedQueries))
	for _, q := range st.AdmittedQueries {
		dst = appendUint(dst, int(q))
	}
	total := 0
	for _, d := range st.Decisions {
		total += len(d.Assignments)
	}
	dst = appendUint(appendUint(dst, len(st.Decisions)), total)
	for _, d := range st.Decisions {
		dst = appendUint(dst, int(d.Query))
		dst = appendBool(dst, d.Admitted)
		dst = appendNullableCount(dst, d.Assignments == nil, len(d.Assignments))
		dst = appendAssignments(dst, d.Assignments)
	}
	dst = appendUint(dst, len(st.Down))
	for _, v := range st.Down {
		dst = appendUint(dst, int(v))
	}
	return dst
}

func appendFloat(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

func appendUint(dst []byte, x int) []byte { return binary.AppendUvarint(dst, uint64(x)) }

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendNullableCount(dst []byte, isNil bool, n int) []byte {
	if isNil {
		return append(dst, 0)
	}
	return appendUint(dst, n+1)
}

func appendAssignments(dst []byte, as []placement.Assignment) []byte {
	for _, a := range as {
		dst = appendUint(dst, int(a.Query))
		dst = appendUint(dst, int(a.Dataset))
		dst = appendUint(dst, int(a.Node))
	}
	return dst
}

// DecodeSnapshot decodes a snapshot payload of either format into a fresh
// EngineState. Every error wraps ErrBadSnapshot.
func DecodeSnapshot(payload []byte) (*EngineState, error) {
	st := &EngineState{}
	var err error
	switch {
	case len(payload) == 0:
		err = errors.New("empty payload")
	case payload[0] == '{':
		err = json.Unmarshal(payload, st)
	case payload[0] == snapshotV1:
		err = decodeSnapshotV1(payload[1:], st)
	default:
		err = fmt.Errorf("unknown format byte %#x", payload[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return st, nil
}

// bool reads one byte that must be 0 or 1.
func (r *v1Reader) bool() bool { return r.uint(1) == 1 }

// count reads an entry count no larger than the entries of at least min
// bytes each that the rest of the payload could hold.
func (r *v1Reader) count(min int) int { return r.uint(len(r.b) / min) }

// nullableCount reads a count of at most limit entries written by
// appendNullableCount; isNil reports the nil slice.
func (r *v1Reader) nullableCount(limit int) (n int, isNil bool) {
	m := r.uint(limit + 1)
	if r.err != nil || m == 0 {
		return 0, true
	}
	return m - 1, false
}

func (r *v1Reader) id() int { return r.uint(math.MaxInt32) }

// assignments decodes len(dst) assignments into dst.
func (r *v1Reader) assignments(dst []placement.Assignment) {
	for i := range dst {
		dst[i] = placement.Assignment{Query: workload.QueryID(r.id()), Dataset: workload.DatasetID(r.id()), Node: graph.NodeID(r.id())}
	}
}

// decodeSnapshotV1 decodes a v1 payload after its version byte into st.
func decodeSnapshotV1(b []byte, st *EngineState) error {
	r := v1Reader{b: b}
	st.Now = r.float()
	st.Peak = r.float()
	st.VolumeAdmitted = r.float()
	st.Admitted = r.uint(math.MaxInt)
	st.Rejected = r.uint(math.MaxInt)
	st.Evicted = r.uint(math.MaxInt)
	if n := r.count(minUse); n > 0 {
		st.Used = make([]NodeUse, n)
		for i := range st.Used {
			st.Used[i] = NodeUse{Node: graph.NodeID(r.id()), GHz: r.float()}
		}
	}
	if n := r.count(minRelease); n > 0 {
		st.Releases = make([]ReleaseState, n)
		for i := range st.Releases {
			rs := &st.Releases[i]
			rs.Forever = r.bool()
			rs.At = r.float()
			rs.Node = graph.NodeID(r.id())
			rs.GHz = r.float()
			rs.Query = workload.QueryID(r.id())
			rs.Dataset = workload.DatasetID(r.id())
		}
	}
	if n := r.count(minReplicaSet); n > 0 {
		st.Replicas = make([]ReplicaSet, n)
		for i := range st.Replicas {
			rs := &st.Replicas[i]
			rs.Dataset = workload.DatasetID(r.id())
			if m, isNil := r.nullableCount(len(r.b)); !isNil {
				rs.Nodes = make([]graph.NodeID, m)
				for k := range rs.Nodes {
					rs.Nodes[k] = graph.NodeID(r.id())
				}
			}
		}
	}
	if n := r.count(minAssignment); n > 0 {
		st.Assignments = make([]placement.Assignment, n)
		r.assignments(st.Assignments)
	}
	if n := r.count(1); n > 0 {
		st.AdmittedQueries = make([]workload.QueryID, n)
		for i := range st.AdmittedQueries {
			st.AdmittedQueries[i] = workload.QueryID(r.id())
		}
	}
	if n := r.count(minDecision); n > 0 {
		arena := make([]placement.Assignment, r.count(minAssignment))
		st.Decisions = make([]Decision, n)
		for i := range st.Decisions {
			d := &st.Decisions[i]
			d.Query = workload.QueryID(r.id())
			d.Admitted = r.bool()
			if m, isNil := r.nullableCount(len(arena)); !isNil {
				d.Assignments = arena[:m:m]
				arena = arena[m:]
				r.assignments(d.Assignments)
			}
		}
		if r.err == nil && len(arena) != 0 {
			return fmt.Errorf("decisions hold %d assignments fewer than their total", len(arena))
		}
	} else {
		r.uint(0) // the total of no decisions' assignments
	}
	if n := r.count(1); n > 0 {
		st.Down = make([]graph.NodeID, n)
		for i := range st.Down {
			st.Down[i] = graph.NodeID(r.id())
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return nil
}
