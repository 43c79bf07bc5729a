package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"edgerep/internal/experiments"
	"edgerep/internal/instrument"
)

// observeOne records one admitted decision of the given latency into tr,
// published the way the epoch loop publishes its batch.
func observeOne(tr *instrument.SLOTracker, latencySec float64) {
	b := tr.NewBatch()
	defer b.Flush()
	b.Observe(latencySec, true, "")
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	instrument.Enable()
	defer instrument.Disable()
	defer instrument.Reset()
	instrument.NewCounter("ops.test_counter").Add(3)
	instrument.NewHistogram("ops.test_hist", 1, 5).Observe(2)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"edgerep_ops_test_counter 3",
		"# TYPE edgerep_ops_test_hist histogram",
		"edgerep_ops_test_hist_bucket{le=\"+Inf\"} 1",
		"edgerep_ops_test_hist_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Parseability smoke: every non-comment line is "name value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	// Drive a real quick sweep so the ledger has content.
	cfg := experiments.QuickSimConfig()
	cfg.Seeds = []int64{1}
	cfg.NetworkSizes = []int{20}
	if _, _, err := experiments.Fig2(cfg); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := get(t, srv, "/progress")
	if code != http.StatusOK {
		t.Fatalf("GET /progress = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap experiments.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if snap.Active {
		t.Fatalf("finished sweep still active: %+v", snap)
	}
	if snap.Sweep == "" || snap.CompletedRuns != snap.TotalRuns || snap.TotalRuns == 0 {
		t.Fatalf("progress did not track the sweep: %+v", snap)
	}
	if snap.CompletedPoints != snap.TotalPoints || snap.TotalPoints != 1 {
		t.Fatalf("progress did not track points: %+v", snap)
	}
}

func TestPprofAndIndexRoutes(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	if code, body, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
	if code, _, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d", code)
	}
	if code, body, _ := get(t, srv, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("GET / = %d", code)
	}
	if code, _, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", code)
	}
}

func TestServeLifecycle(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer instrument.Disable()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics via Serve = %d", resp.StatusCode)
	}
	if !instrument.Enabled() {
		t.Fatal("Serve did not enable metric collection")
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestSLOAndFlightEndpoints covers both new observability routes: 503 with a
// hint while the collector is detached, live JSON once attached.
func TestSLOAndFlightEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	if code, body, _ := get(t, srv, "/slo"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "-slo") {
		t.Fatalf("GET /slo detached = %d %q, want 503 naming the flag", code, body)
	}
	if code, body, _ := get(t, srv, "/debug/flight"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "-flight") {
		t.Fatalf("GET /debug/flight detached = %d %q, want 503 naming the flag", code, body)
	}

	tr := instrument.NewSLOTracker(instrument.SLOConfig{})
	fr := instrument.NewFlightRecorder(8, nil)
	instrument.SetSLOTracker(tr)
	instrument.SetFlightRecorder(fr)
	defer instrument.SetSLOTracker(nil)
	defer instrument.SetFlightRecorder(nil)
	observeOne(tr, 0.002)
	fr.RecordEvent(instrument.EventChaos, 1, -1, "")

	code, body, hdr := get(t, srv, "/slo")
	if code != http.StatusOK {
		t.Fatalf("GET /slo attached = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/slo content type %q", ct)
	}
	var rep instrument.SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/slo is not JSON: %v", err)
	}
	if len(rep.Windows) != 3 || rep.Windows[0].Offers != 1 {
		t.Fatalf("/slo report windows %+v, want 3 with the observed offer", rep.Windows)
	}

	code, body, _ = get(t, srv, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight attached = %d", code)
	}
	var snap instrument.FlightSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/flight is not JSON: %v", err)
	}
	if snap.Recorded != 1 || len(snap.Entries) != 1 || snap.Entries[0].Kind != instrument.EventChaos {
		t.Fatalf("/debug/flight snapshot %+v, want the one chaos entry", snap)
	}
}
