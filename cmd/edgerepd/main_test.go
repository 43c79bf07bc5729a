package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"edgerep/internal/federation"
	"edgerep/internal/instrument"
	"edgerep/internal/invariant"
	"edgerep/internal/journal"
	"edgerep/internal/server"
)

// TestMain lets the test binary stand in for edgerepd: invoked with a mode
// as its first argument (never the case under `go test`, which passes
// -test.* flags) it is the daemon, so tests can start, kill -9 and restart
// real processes without a `go build`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestRunRejects(t *testing.T) {
	tmp := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no mode", nil, "selfdrive"},
		{"unknown mode", []string{"resume"}, "follow"},
		{"flat form", []string{"-selfdrive", "-count", "5"}, "Modes:"},
		{"serve with a selfdrive flag", []string{"serve", "-count", "5"}, "not defined: -count"},
		{"serve -resume", []string{"serve", "-resume"}, "not defined: -resume"},
		{"drive with a daemon flag", []string{"drive", "-journal", "x", "http://localhost:1"}, "not defined: -journal"},
		{"drill with a selfdrive flag", []string{"drill", "-rate", "1"}, "not defined: -rate"},
		{"follow -term", []string{"follow", "-term", "2", "http://localhost:1"}, "not defined: -term"},
		{"selfdrive -http", []string{"selfdrive", "-http", ":0"}, "not defined: -http"},
		{"serve without -journal", []string{"serve", "-http", "127.0.0.1:0"}, "-journal is required"},
		{"serve without -http", []string{"serve", "-journal", tmp}, "-http is required"},
		{"follow without -journal", []string{"follow", "-http", "127.0.0.1:0", "-takeover", tmp, "http://localhost:1"}, "-journal is required"},
		{"follow without a leader", []string{"follow", "-http", "127.0.0.1:0", "-journal", tmp, "-takeover", tmp}, "0 arguments after the flags, want 1"},
		{"drive without a daemon", []string{"drive", "-count", "5"}, "0 arguments after the flags, want 1"},
		{"serve with a stray argument", []string{"serve", "-http", ":0", "-journal", tmp, "extra"}, "1 arguments after the flags, want 0"},
		{"malformed -peers", []string{"serve", "-peers", "0:http://a"}, "not shard=baseURL"},
		{"crash without a journal", []string{"selfdrive", "-proc-crash-after", "10"}, "needs -journal"},
		{"-max-util above 1", []string{"selfdrive", "-max-util", "5", "-journal", filepath.Join(tmp, "util")}, "outside [0, 1]"},
		{"negative -max-util", []string{"serve", "-max-util", "-1", "-http", ":0", "-journal", tmp}, "outside [0, 1]"},
		{"NaN -max-util", []string{"selfdrive", "-max-util", "NaN"}, "outside [0, 1]"},
		{"-max-util not a number", []string{"follow", "-max-util", "most"}, "invalid value"},
		{"dump without a directory", []string{"dump"}, "0 arguments after the flags, want 1"},
		{"dump -journal", []string{"dump", "-journal", tmp}, "not defined: -journal"},
		{"dump of a missing directory", []string{"dump", filepath.Join(tmp, "nowhere")}, "no such file or directory"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run(%q) = %v, want an error containing %q", tc.name, tc.args, err, tc.want)
		}
	}
	if err := run([]string{"drive", "-h"}); err != nil {
		t.Errorf("drive -h: %v", err)
	}
}

// TestDump pins what an operator reads: the same history written in v0 JSON,
// in binary v1 or in both (the journal of an upgraded daemon) prints the same
// lines, the head reports the snapshot LSN, the record count and a dropped
// torn tail, and a record neither format decodes is named by its LSN.
func TestDump(t *testing.T) {
	f64 := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v0 := [][]byte{
		[]byte(`{"kind":"offer","at":1.5,"hold":30,"query":3,"node":-1,"outcome":{"seq":0,"run":0,"event":"admit","algo":"online","query":3,"dataset":-1,"node":-1,"datasets":[2,4],"nodes":[7,9],"volume":12.5}}`),
		[]byte(`{"kind":"offer","at":2,"query":5,"node":-1,"outcome":{"seq":0,"run":0,"event":"reject","algo":"online","query":5,"dataset":-1,"node":-1}}`),
		[]byte(`{"kind":"crash","at":3,"query":-1,"node":6,"outcome":{"seq":0,"run":0,"event":"crash","algo":"online","query":-1,"dataset":-1,"node":6,"volume":40},"lost_replicas":2,"repaired":1,"evicted":1}`),
		[]byte(`{"kind":"restore","at":3,"query":-1,"node":6}`),
	}
	v1 := [][]byte{
		cat([]byte{1, 1}, f64(1.5), f64(30), []byte{3, 2, 2, 7, 4, 9}),
		cat([]byte{1, 2}, f64(2), f64(0), []byte{5}),
		cat([]byte{1, 3}, f64(3), []byte{6, 2, 1, 1}),
		cat([]byte{1, 4}, f64(3), []byte{6}),
	}
	lines := []string{
		`{"lsn":1,"kind":"offer","at":1.5,"hold":30,"query":3,"node":-1,"admitted":true,"assignments":[{"dataset":2,"node":7},{"dataset":4,"node":9}]}`,
		`{"lsn":2,"kind":"offer","at":2,"query":5,"node":-1}`,
		`{"lsn":3,"kind":"crash","at":3,"query":-1,"node":6,"lost_replicas":2,"repaired":1,"evicted":1}`,
		`{"lsn":4,"kind":"restore","at":3,"query":-1,"node":6}`,
	}
	history := strings.Join(lines, "\n") + "\n"
	for _, tc := range []struct {
		name    string
		records [][]byte
		snapAt  int // take a snapshot after this many records (0: none)
		torn    bool
		want    string
		wantErr string
	}{
		{name: "empty", want: `{"snapshot_lsn":0,"records":0,"torn":false}` + "\n"},
		{name: "v0", records: v0, snapAt: 2, want: `{"snapshot_lsn":2,"records":4,"torn":false}` + "\n" + history},
		{name: "v1", records: v1, snapAt: 2, want: `{"snapshot_lsn":2,"records":4,"torn":false}` + "\n" + history},
		{name: "v0 then v1", records: [][]byte{v0[0], v0[1], v1[2], v1[3]}, want: `{"snapshot_lsn":0,"records":4,"torn":false}` + "\n" + history},
		{name: "torn tail", records: v1, torn: true, want: `{"snapshot_lsn":0,"records":4,"torn":true}` + "\n" + history},
		{name: "malformed", records: [][]byte{v1[0], {1, 9}}, wantErr: "record 2: online: malformed journal record"},
	} {
		dir := t.TempDir()
		j, err := journal.Open(dir, journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range tc.records {
			if _, err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			if i+1 == tc.snapAt {
				if err := j.Snapshot([]byte("{}")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tc.torn {
			if err := j.TearTail(v1[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = dump(&out, dir)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case out.String() != tc.want:
			t.Errorf("%s: dump\n%s\nwant\n%s", tc.name, out.String(), tc.want)
		}
	}
}

// daemon is this test binary running as edgerepd (see TestMain).
type daemon struct {
	cmd    *exec.Cmd
	stdout *bufio.Scanner
	stderr string // file the daemon's stderr goes to
}

func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0], args...), stderr: filepath.Join(t.TempDir(), "stderr")}
	errf, err := os.Create(d.stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer errf.Close()
	d.cmd.Stderr = errf
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.stdout = bufio.NewScanner(out)
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.kill)
	return d
}

// serving blocks until the daemon has bound and returns its base URL. The
// recovery lines are on stderr by then: a leader recovers before it listens.
func (d *daemon) serving(t *testing.T) string {
	t.Helper()
	for d.stdout.Scan() {
		if url, ok := strings.CutPrefix(d.stdout.Text(), "edgerepd: serving on "); ok {
			return url
		}
	}
	t.Fatalf("daemon exited before binding; stderr:\n%s", read(t, d.stderr))
	return ""
}

// kill is kill -9: no drain, no snapshot, nothing flushed.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSelfdriveWithoutJournal pins the documented load run: no -journal, and
// the trace bytes `edgerepd -selfdrive -count 2000 -trace T` wrote before the
// modes became subcommands.
func TestSelfdriveWithoutJournal(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := exec.Command(os.Args[0], "selfdrive", "-count", "2000", "-trace", trace).Output()
	if err != nil {
		t.Fatalf("selfdrive: %v", err)
	}
	if !strings.Contains(string(out), "edgerepd: final admitted=") {
		t.Errorf("no final line in:\n%s", out)
	}
	const want = "58121da866ed58da378d9161aea812dcb7e97ba9ad198bfa9761f4de38ced68a"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(read(t, trace)))); got != want {
		t.Errorf("trace sha256 = %s, want %s", got, want)
	}
}

// TestRestartWithIdenticalArguments is the restart-safety regression: a
// daemon killed without a drain and started again with the same command line
// must recover what it acked, not append a second history after it. Before
// recovery was worked out from the journal, the second start needed -resume;
// without it the journal ended up unreplayable ("arrival at 1.003s before
// current time 1.036s").
func TestRestartWithIdenticalArguments(t *testing.T) {
	wal := t.TempDir()
	args := []string{"serve", "-http", "127.0.0.1:0", "-journal", wal}
	const n, m = 300, 200

	d := start(t, args...)
	url := d.serving(t)
	requireColdStartLine(t, read(t, d.stderr), 0)
	if err := run([]string{"drive", "-count", fmt.Sprint(n), url}); err != nil {
		t.Fatal(err)
	}
	d.kill()

	d = start(t, args...)
	url = d.serving(t)
	errs := read(t, d.stderr)
	if !strings.Contains(errs, fmt.Sprintf("recovered %d decisions", n)) {
		t.Fatalf("second start did not recover %d decisions:\n%s", n, errs)
	}
	requireColdStartLine(t, errs, n)
	if err := run([]string{"drive", "-count", fmt.Sprint(m), url}); err != nil {
		t.Fatal(err)
	}
	d.kill()

	d = start(t, args...)
	d.serving(t)
	errs = read(t, d.stderr)
	if !strings.Contains(errs, fmt.Sprintf("recovered %d decisions", n+m)) {
		t.Fatalf("third start did not recover %d decisions:\n%s", n+m, errs)
	}
	requireColdStartLine(t, errs, n+m)
	d.kill()

	// A fourth start, in process with a trace sink attached: the history the
	// three daemons left replays divergence-free, and the replayed trace
	// passes the first-principles checker.
	sink := &memSink{}
	instrument.ResetTrace()
	instrument.SetTraceSink(sink)
	defer instrument.ResetTrace()
	l, err := federation.StartLeader(federation.Config{
		Region: "r0", Instance: server.DefaultInstance(), Shards: 1,
		ExpectedArrivals: 1_000_000, SnapshotEvery: 20000,
	}, wal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Recovery().Decisions; got != n+m {
		t.Errorf("journal replays %d decisions, want %d", got, n+m)
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if vs := invariant.CheckTrace(l.Problem(), sink.events, invariant.TraceOptions{Online: true}); len(vs) != 0 {
		t.Errorf("trace violations: %v", vs)
	}
}

// requireColdStartLine checks the start-up timeline every leader prints: it
// is there, its five parts sum to no more than its total, and it counts the
// records the start replayed (no snapshot here, so all of them).
func requireColdStartLine(t *testing.T, stderr string, replayed int) {
	t.Helper()
	var line string
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, "edgerepd: cold start ") {
			line = l
		}
	}
	var total, inst, jn, tables, snap, replay float64
	var records int
	if _, err := fmt.Sscanf(line, "edgerepd: cold start %fs: instance %fs, journal %fs, tables %fs, snapshot %fs, replay %fs (%d records replayed)",
		&total, &inst, &jn, &tables, &snap, &replay, &records); err != nil {
		t.Fatalf("no cold-start line (%v) in:\n%s", err, stderr)
	}
	if sum := inst + jn + tables + snap + replay; sum > total+1e-9 {
		t.Errorf("parts sum to %.3fs, more than the total: %s", sum, line)
	}
	if records != replayed {
		t.Errorf("%d records replayed, want %d: %s", records, replayed, line)
	}
}

type memSink struct{ events []instrument.TraceEvent }

func (m *memSink) Emit(ev *instrument.TraceEvent) { m.events = append(m.events, *ev) }
