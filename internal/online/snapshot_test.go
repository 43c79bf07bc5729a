package online

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// CheckSnapshotMatchesJSON is the snapshot codec's oracle on one payload the
// engine wrote for the state want: it decodes reflect.DeepEqual to what
// encoding/json makes of the reference encoder's JSON of want (nil and empty
// slices included), and re-encodes to itself byte for byte.
func CheckSnapshotMatchesJSON(t testing.TB, payload []byte, want *EngineState) {
	t.Helper()
	if len(payload) == 0 || payload[0] != snapshotV1 {
		t.Fatalf("snapshot is not binary v1: % x…", payload[:min(len(payload), 8)])
	}
	js, err := snapshotJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON EngineState
	if err := json.Unmarshal(js, &fromJSON); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, fromJSON) {
		t.Fatalf("binary snapshot decodes to\n %+v\nthe JSON of the same state to\n %+v", *got, fromJSON)
	}
	if viaJSON, err := DecodeSnapshot(js); err != nil || !reflect.DeepEqual(*viaJSON, fromJSON) {
		t.Fatalf("DecodeSnapshot of the JSON: %v", err)
	}
	if enc := AppendSnapshot(nil, got); !bytes.Equal(enc, payload) {
		t.Fatalf("a %d-byte snapshot re-encodes to %d different bytes", len(payload), len(enc))
	}
}

// snapshotOracle drives an engine that snapshots after every record and
// holds each snapshot, right after it is written, to CheckSnapshotMatchesJSON
// against the engine's state at that moment. It tallies what the states held.
type snapshotOracle struct {
	t   testing.TB
	e   *Engine
	dir string

	snapshots, forever, down, repeats, evicted, rejected int
	payloads                                             [][]byte
}

func newSnapshotOracle(t testing.TB, p *placement.Problem, expected int) *snapshotOracle {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return &snapshotOracle{t: t, e: NewEngine(p, expected, Options{Journal: j, SnapshotEvery: 1}), dir: dir}
}

func (o *snapshotOracle) check(err error) {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
	payload, err := journal.SnapshotAt(o.dir, o.e.jn.LSN())
	if err != nil {
		o.t.Fatal(err)
	}
	st := o.e.StateDump()
	CheckSnapshotMatchesJSON(o.t, payload, st)
	o.snapshots++
	o.payloads = append(o.payloads, payload)
	for _, r := range st.Releases {
		if r.Forever {
			o.forever++
			break
		}
	}
	if len(st.Down) > 0 {
		o.down++
	}
	for i := 1; i < len(st.AdmittedQueries); i++ {
		if st.AdmittedQueries[i] == st.AdmittedQueries[i-1] {
			o.repeats++
			break
		}
	}
	if st.Evicted > 0 {
		o.evicted++
	}
	if st.Rejected > 0 {
		o.rejected++
	}
}

func (o *snapshotOracle) Offer(a Arrival) (Decision, error) {
	dec, err := o.e.Offer(a)
	o.check(err)
	return dec, err
}

func (o *snapshotOracle) Crash(atSec float64, v graph.NodeID) (CrashReport, error) {
	rep, err := o.e.Crash(atSec, v)
	o.check(err)
	return rep, err
}

func (o *snapshotOracle) Restore(v graph.NodeID) error {
	err := o.e.Restore(v)
	o.check(err)
	return err
}

// oracleSnapshots returns every snapshot the engine writes over Churn's three
// passes (crashes that repair and evict, no-op crashes, restores, queries
// admitted again and demanding one dataset twice) and over a run of
// hold-forever offers that ends with two nodes down, each checked against the
// JSON of its state.
func oracleSnapshots(t testing.TB) [][]byte {
	churn := newSnapshotOracle(t, ChurnProblem(t, 9, 40), 120)
	for pass := 0; pass < 3; pass++ {
		Churn(t, churn, 40, pass)
	}
	p, _ := NewTestProblem(t, 21, 30)
	held := newSnapshotOracle(t, p, 30)
	for q := 0; q < 30; q++ {
		if _, err := held.Offer(Arrival{Query: workload.QueryID(q), AtSec: float64(q)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		var load []int
		for _, a := range held.e.sol.Assignments {
			for int(a.Node) >= len(load) {
				load = append(load, 0)
			}
			load[a.Node]++
		}
		busiest := 0
		for v, n := range load {
			if n > load[busiest] {
				busiest = v
			}
		}
		if _, err := held.Crash(31+float64(i), graph.NodeID(busiest)); err != nil {
			t.Fatal(err)
		}
	}
	if churn.down == 0 || churn.repeats == 0 || churn.evicted == 0 || churn.rejected == 0 || held.forever == 0 || held.down == 0 {
		t.Fatalf("states too tame: churn %d snapshots (%d with a node down, %d with a repeated admission, %d after an eviction, %d after a reject), held %d (%d with forever holds, %d with a node down)",
			churn.snapshots, churn.down, churn.repeats, churn.evicted, churn.rejected, held.snapshots, held.forever, held.down)
	}
	return append(churn.payloads, held.payloads...)
}

// TestSnapshotCodecMatchesJSON is the snapshot codec's oracle: every snapshot
// the engine writes over a churned history and a hold-forever one decodes to
// what the JSON of the same state decodes to and re-encodes to itself, and
// states with nil and empty slices in every place survive both formats alike.
func TestSnapshotCodecMatchesJSON(t *testing.T) {
	if n := len(oracleSnapshots(t)); n < 150 {
		t.Fatalf("only %d snapshots checked", n)
	}
	for _, st := range []*EngineState{
		{},
		{Used: []NodeUse{}, Releases: []ReleaseState{}, Replicas: []ReplicaSet{}, Assignments: []placement.Assignment{},
			AdmittedQueries: []workload.QueryID{}, Decisions: []Decision{}, Down: []graph.NodeID{}},
		{Now: 3.5, Peak: math.Copysign(0, -1), Admitted: 2, Rejected: 1,
			Releases: []ReleaseState{{Forever: true, Node: 4, GHz: 0.1, Query: 2, Dataset: 1}, {At: 7.25, Node: 5, GHz: 1e-300}},
			Replicas: []ReplicaSet{{Dataset: 1}, {Dataset: 2, Nodes: []graph.NodeID{}}, {Dataset: 3, Nodes: []graph.NodeID{9, 1}}},
			Decisions: []Decision{{Query: 1}, {Query: 2, Admitted: true, Assignments: []placement.Assignment{}},
				{Query: 3, Admitted: true, Assignments: []placement.Assignment{{Query: 3, Dataset: 1, Node: 4}, {Query: 3, Dataset: 1, Node: 4}}}},
			Down: []graph.NodeID{1 << 30}},
	} {
		CheckSnapshotMatchesJSON(t, AppendSnapshot(nil, st), st)
	}
}

// TestDecodeSnapshotRefuses holds the v1 decoder to the bytes the encoder
// writes: every strict prefix of a snapshot, a trailing byte, bools and
// nullable counts out of range, a decision total its decisions do not add up
// to, counts past the payload and non-finite floats are typed errors.
func TestDecodeSnapshotRefuses(t *testing.T) {
	f64 := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := cat([]byte{snapshotV1}, f64(1), f64(0.5), f64(2), []byte{1, 0, 0})
	// One admitted decision with one assignment: 01 q=3 admitted m'=2 (3 1 4).
	decision := []byte{1, 1, 3, 1, 2, 3, 1, 4}
	valid := cat(head, []byte{0, 0, 0, 0, 0}, decision, []byte{0})
	if _, err := DecodeSnapshot(valid); err != nil {
		t.Fatalf("the well-formed control: %v", err)
	}
	cases := map[string][]byte{
		"empty":                          nil,
		"unknown format":                 {0x02},
		"not JSON":                       []byte(`{"now":`),
		"trailing byte":                  append(bytes.Clone(valid), 0),
		"NaN float":                      cat([]byte{snapshotV1}, f64(math.NaN()), valid[9:]),
		"infinite float":                 cat([]byte{snapshotV1, 0, 0, 0, 0, 0, 0, 0, 0}, f64(math.Inf(1)), valid[17:]),
		"bool 2":                         cat(head, []byte{0, 0, 0, 0, 0}, []byte{1, 1, 3, 2, 2, 3, 1, 4}, []byte{0}),
		"assignments past total":         cat(head, []byte{0, 0, 0, 0, 0}, []byte{1, 1, 3, 1, 3, 3, 1, 4, 3, 1, 4}, []byte{0}),
		"total past assignments":         cat(head, []byte{0, 0, 0, 0, 0}, []byte{1, 2, 3, 1, 2, 3, 1, 4, 3, 1, 4}, []byte{0}),
		"total of no decisions":          cat(head, []byte{0, 0, 0, 0, 0, 0, 1, 0}),
		"overlong varint":                cat(head, []byte{0x80, 0x00, 0, 0, 0, 0}, decision, []byte{0}),
		"count past the payload":         cat(head, []byte{0, 0, 0, 0, 0}, decision, []byte{200}),
		"replica nodes past the payload": cat(head, []byte{0, 0, 1, 1, 100, 4, 0, 0}, decision, []byte{0}),
	}
	for i := range valid {
		cases[fmt.Sprintf("%d-byte prefix", i)] = valid[:i]
	}
	for name, payload := range cases {
		st, err := DecodeSnapshot(payload)
		if !errors.Is(err, ErrBadSnapshot) || st != nil {
			t.Errorf("%s (% x): got %+v, %v; want ErrBadSnapshot", name, payload, st, err)
		}
	}
}

// FuzzSnapshotDecode holds DecodeSnapshot to its contract on arbitrary bytes:
// it never panics, an error wraps ErrBadSnapshot, and a binary payload that
// decodes is the encoding of what it decodes to.
func FuzzSnapshotDecode(f *testing.F) {
	for i, payload := range oracleSnapshots(f) {
		if i%16 == 0 {
			f.Add(payload)
		}
	}
	f.Add([]byte(`{"now":1,"decisions":[{"Query":1,"Admitted":false,"Assignments":null}]}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := DecodeSnapshot(payload)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) || st != nil {
				t.Fatalf("error %v (state %+v)", err, st)
			}
			return
		}
		if payload[0] == snapshotV1 {
			if enc := AppendSnapshot(nil, st); !bytes.Equal(enc, payload) {
				t.Fatalf("%x decodes to %+v, which encodes to %x", payload, st, enc)
			}
		}
	})
}
