package federation

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/server"
	"edgerep/internal/workload"
)

func TestOwnerPartition(t *testing.T) {
	p, err := server.BuildInstance(server.DefaultInstance())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	counts := make([]int, shards)
	for _, v := range p.Cloud.Topology().ComputeNodes {
		sh := OwnerOfNode(v, shards)
		if sh < 0 || sh >= shards {
			t.Fatalf("node %d owned by shard %d", v, sh)
		}
		counts[sh]++
	}
	for sh, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no nodes", sh)
		}
	}
	for q := range p.Queries {
		sh := OwnerOfQuery(p, workload.QueryID(q), shards)
		if want := OwnerOfNode(p.Queries[q].Home, shards); sh != want {
			t.Fatalf("query %d owner %d, home owner %d", q, sh, want)
		}
	}
	if OwnerOfNode(5, 1) != 0 || OwnerOfNode(5, 0) != 0 {
		t.Fatal("unfederated ownership must be shard 0")
	}
}

func TestTermFilePersistence(t *testing.T) {
	dir := t.TempDir()
	if term, err := ReadTerm(dir); err != nil || term != 0 {
		t.Fatalf("missing term file: got %d, %v", term, err)
	}
	if err := WriteTerm(dir, 7); err != nil {
		t.Fatal(err)
	}
	if term, err := ReadTerm(dir); err != nil || term != 7 {
		t.Fatalf("round trip: got %d, %v", term, err)
	}
	// A leader may never start behind its own persisted term.
	cfg := Config{Instance: server.DefaultInstance(), Shards: 1, NoSync: true, ExpectedArrivals: 100}
	if _, err := StartLeader(cfg, dir, 3); err == nil {
		t.Fatal("StartLeader accepted a term behind the persisted one")
	} else if !strings.Contains(err.Error(), "behind persisted term") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestLeaderMaskJournaledAndRecovered(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Region: "r1", Instance: server.DefaultInstance(), Shards: 3, Shard: 1,
		ExpectedArrivals: 100, NoSync: true, DeterministicClock: true,
	}
	l, err := StartLeader(cfg, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Problem()
	notOwned := 0
	for _, v := range p.Cloud.Topology().ComputeNodes {
		if OwnerOfNode(v, 3) != 1 {
			notOwned++
		}
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != notOwned {
		t.Fatalf("mask journaled %d records, want %d (one crash per foreign node)", len(st.Records), notOwned)
	}
	// Restart resumes from the journal: the mask must come back without
	// re-crashing anything (the record count must not grow).
	l2, err := StartLeader(cfg, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Journal().LSN(); got != int64(notOwned) {
		t.Fatalf("recovered leader at LSN %d, want %d", got, notOwned)
	}
	if l2.Term() != 2 {
		t.Fatalf("recovered leader term %d, want 2", l2.Term())
	}
}

// stubTransport scripts Transport outcomes for standby unit tests.
type stubTransport struct {
	manifest Manifest
	fail     bool
	segs     map[int][]byte
}

func (s *stubTransport) Manifest() (Manifest, error) {
	if s.fail {
		return Manifest{}, fmt.Errorf("stub: %w", errors.New("unreachable"))
	}
	return s.manifest, nil
}

func (s *stubTransport) Segment(seal journal.SealInfo) ([]byte, error) {
	data, ok := s.segs[seal.Segment]
	if !ok {
		return nil, errors.New("stub: no such segment")
	}
	return data, nil
}

// TestStandbyStalledHealthz is the satellite-2 regression: exhausted ship
// retries must surface as a replication-stalled 503 on the follower's
// /healthz, and a successful sync must clear it.
func TestStandbyStalledHealthz(t *testing.T) {
	tr := &stubTransport{manifest: Manifest{Region: "r0", Term: 1}}
	cfg := Config{Instance: server.DefaultInstance(), Shards: 1, ExpectedArrivals: 100}
	s, err := NewStandby(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	probe := func() (int, string) {
		rec := httptest.NewRecorder()
		s.HealthzHandler(rec, nil)
		return rec.Code, rec.Body.String()
	}
	if code, _ := probe(); code != 200 {
		t.Fatalf("fresh standby healthz %d, want 200", code)
	}
	tr.fail = true
	if err := s.SyncOnce(); err == nil {
		t.Fatal("SyncOnce succeeded against a dead transport")
	}
	if !s.Stalled() || s.Misses() != 1 {
		t.Fatalf("stalled=%v misses=%d after exhausted retries, want true/1", s.Stalled(), s.Misses())
	}
	code, body := probe()
	if code != 503 || !strings.Contains(body, "replication-stalled") {
		t.Fatalf("stalled healthz = %d %q, want 503 replication-stalled", code, body)
	}
	tr.fail = false
	if err := s.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if s.Stalled() || s.Misses() != 0 {
		t.Fatalf("stalled=%v misses=%d after recovery, want false/0", s.Stalled(), s.Misses())
	}
	if code, _ := probe(); code != 200 {
		t.Fatalf("recovered healthz %d, want 200", code)
	}
}

// TestStandbyRejectsSegmentGap: a manifest that skips a segment must abort
// the sync, not silently apply a history with a hole.
func TestStandbyRejectsSegmentGap(t *testing.T) {
	tr := &stubTransport{manifest: Manifest{
		Term:     1,
		Segments: []journal.SealInfo{{Segment: 2, Bytes: 10, CRC: 1}},
	}}
	cfg := Config{Instance: server.DefaultInstance(), Shards: 1, ExpectedArrivals: 100}
	s, err := NewStandby(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SyncOnce(); err == nil || !strings.Contains(err.Error(), "skips") {
		t.Fatalf("gap not detected: %v", err)
	}
}

// TestShipFromLiveLeader exercises the in-process transport end to end: a
// journaling leader rotates segments, the standby pulls and replays them,
// and the replication position tracks the leader's sealed prefix.
func TestShipFromLiveLeader(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Region: "r0", Instance: server.DefaultInstance(), Shards: 1,
		ExpectedArrivals: 400, SegmentBytes: 2048, NoSync: true, DeterministicClock: true,
	}
	l, err := StartLeader(cfg, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := l.Server()
	if _, err := server.Drive(srv, server.DriveConfig{Count: 300, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	st, err := NewStandby(cfg, &LeaderTransport{Leader: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	m, err := l.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 {
		t.Fatal("leader sealed no segments at 2KiB segment size — shipping untested")
	}
	var sealedRecords int64
	for _, seal := range m.Segments {
		data, err := journal.ReadSealedSegment(dir, seal)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := journal.DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		sealedRecords += int64(len(recs))
	}
	if st.LSN() != sealedRecords {
		t.Fatalf("standby at LSN %d, sealed prefix holds %d records", st.LSN(), sealedRecords)
	}
	if lag := st.Lag(); lag != m.LSN-sealedRecords {
		t.Fatalf("lag %d, want %d", lag, m.LSN-sealedRecords)
	}
	if err := l.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Manifest(); err == nil {
		t.Fatal("killed leader still answers manifests")
	}
	nl, err := st.Promote(dir, filepath.Join(t.TempDir(), "promoted"))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Term() != 2 {
		t.Fatalf("promoted term %d, want 2", nl.Term())
	}
	if nl.Server().Term() != 2 {
		t.Fatalf("promoted server fences term %d, want 2", nl.Server().Term())
	}
	// The handoff snapshot at LSN 0 must exist and decode.
	handoff, err := journal.SnapshotAt(nl.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.DecodeSnapshot(handoff); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Promote(dir, t.TempDir()); err == nil {
		t.Fatal("double promotion allowed")
	}
}

func TestHTTPTransportShipsAndRetries(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Region: "r0", Instance: server.DefaultInstance(), Shards: 1,
		ExpectedArrivals: 300, SegmentBytes: 2048, NoSync: true, DeterministicClock: true,
	}
	l, err := StartLeader(cfg, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Drive(l.Server(), server.DriveConfig{Count: 200, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(l.Handler(nil))
	defer hs.Close()
	tr := NewHTTPTransport(hs.URL, 0)
	m, err := tr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 {
		t.Fatal("no sealed segments over HTTP")
	}
	data, err := tr.Segment(m.Segments[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.VerifySealedBytes(data, m.Segments[0]); err != nil {
		t.Fatal(err)
	}
	// A seal the leader does not have must 404 through the retry loop and
	// surface as an error, never as silent bytes.
	if _, err := tr.Segment(journal.SealInfo{Segment: 999, Bytes: 1, CRC: 1}); err == nil {
		t.Fatal("phantom segment fetched")
	}
	_ = os.RemoveAll(dir)
}
