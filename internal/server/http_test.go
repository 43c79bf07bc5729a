package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/ops"
)

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestHTTPAdmitSingleAndBatch(t *testing.T) {
	_, s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()

	code, data := post(t, ts.URL+"/admit", `{"query": 0, "at_sec": 1, "hold_sec": 1}`)
	if code != http.StatusOK {
		t.Fatalf("single admit: %d: %s", code, data)
	}
	var one AdmitResponse
	if err := json.Unmarshal(data, &one); err != nil {
		t.Fatalf("single response is not one object: %v", err)
	}
	if one.Query != 0 {
		t.Fatalf("single response query %d", one.Query)
	}

	code, data = post(t, ts.URL+"/admit", `[{"query": 1}, {"query": 2}, {"query": 3}]`)
	if code != http.StatusOK {
		t.Fatalf("batch admit: %d: %s", code, data)
	}
	var batch []AdmitResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatalf("batch response is not an array: %v", err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch answered %d decisions, want 3", len(batch))
	}
	for i, r := range batch {
		if int(r.Query) != i+1 {
			t.Fatalf("batch response %d is for query %d: order not preserved", i, r.Query)
		}
		if !r.Admitted && r.Reason == "" {
			t.Fatalf("batch response %d rejected without a typed reason", i)
		}
	}

	if code, _ := post(t, ts.URL+"/admit", `{"query": 999999}`); code != http.StatusBadRequest {
		t.Fatalf("unknown query: %d, want 400", code)
	}
	if code, _ := post(t, ts.URL+"/admit", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", code)
	}
	if code, _ := post(t, ts.URL+"/admit", `[]`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/admit"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admit: %d, want 405", code)
	}

	code, data = get(t, ts.URL+"/state")
	if code != http.StatusOK {
		t.Fatalf("/state: %d", code)
	}
	var dump online.EngineState
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("/state is not an EngineState: %v", err)
	}
	if dump.Admitted+dump.Rejected != 4 {
		t.Fatalf("/state accounts %d decisions, want 4", dump.Admitted+dump.Rejected)
	}

	if code, data := get(t, ts.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(data, []byte("ok")) {
		t.Fatalf("/healthz: %d %q", code, data)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d, want 503", code)
	}
	if code, _ := post(t, ts.URL+"/admit", `{"query": 0}`); code != http.StatusServiceUnavailable {
		t.Fatalf("admit while draining: %d, want 503", code)
	}
}

func TestHTTPFallbackRouting(t *testing.T) {
	_, s := newTestServer(t, Config{})
	defer func() {
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	ts := httptest.NewServer(s.Handler(ops.Handler()))
	defer ts.Close()

	code, data := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics via fallback: %d", code)
	}
	if !bytes.Contains(data, []byte("edgerep_server_offers")) {
		t.Fatal("/metrics does not render the server metrics")
	}

	if code, _ := get(t, ts.URL+"/no-such-route"); code != http.StatusNotFound {
		t.Fatalf("unknown route: %d, want 404", code)
	}
}

// TestConcurrentAdmitScrapeRestart is the -race drill from the issue:
// concurrent clients hammer /admit while /metrics is scraped, the daemon is
// "killed" mid-traffic (listener closed, journal tail torn), recovered, and
// hammered again — and the journal accounts every acknowledged decision
// exactly once across the whole life cycle.
func TestConcurrentAdmitScrapeRestart(t *testing.T) {
	const clients, perClient = 8, 150
	p := testInstance(t)
	dir := t.TempDir()

	hammer := func(ts *httptest.Server) int {
		var wg sync.WaitGroup
		acks := make([]int, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					q := (c*perClient + i) % len(p.Queries)
					body := fmt.Sprintf(`{"query": %d, "hold_sec": 0.5}`, q)
					resp, err := http.Post(ts.URL+"/admit", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					if cerr := resp.Body.Close(); cerr != nil {
						t.Errorf("client %d: %v", c, cerr)
						return
					}
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					if resp.StatusCode == http.StatusOK {
						acks[c]++
					}
				}
			}(c)
		}
		scrapeDone := make(chan struct{})
		go func() {
			defer close(scrapeDone)
			for i := 0; i < 50; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return // listener may close under us mid-restart drill
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}()
		wg.Wait()
		<-scrapeDone
		total := 0
		for _, a := range acks {
			total += a
		}
		return total
	}

	// Life 1: fresh daemon, concurrent traffic, then a crash mid-write.
	jn, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(p, online.NewEngine(p, 10*clients*perClient, online.Options{Journal: jn}), Config{})
	acked1 := func() int {
		ts1 := httptest.NewServer(s1.Handler(ops.Handler()))
		defer ts1.Close()
		return hammer(ts1)
	}()
	if err := jn.TearTail([]byte("http-test-proc-crash")); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if acked1 != clients*perClient {
		t.Fatalf("life 1 acked %d of %d", acked1, clients*perClient)
	}

	// Every acknowledged decision is on disk exactly once (the torn tail is
	// the unacknowledged write, dropped on load).
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not detected")
	}
	if len(st.Records) != acked1 {
		t.Fatalf("journal holds %d records, %d decisions were acknowledged", len(st.Records), acked1)
	}

	// Life 2: recover and keep serving.
	jn2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := online.Recover(p, 10*clients*perClient, online.Options{Journal: jn2}, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Result().Decisions); got != acked1 {
		t.Fatalf("recovered %d decisions, want %d", got, acked1)
	}
	s2 := New(p, eng, Config{})
	ts2 := httptest.NewServer(s2.Handler(ops.Handler()))
	defer ts2.Close()
	acked2 := hammer(ts2)
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := jn2.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Records) != acked1+acked2 {
		t.Fatalf("journal holds %d records after life 2, %d decisions were acknowledged",
			len(st2.Records), acked1+acked2)
	}
	res := s2.Result()
	if res.Admitted+res.Rejected != acked1+acked2 {
		t.Fatalf("engine accounts %d decisions, clients were acknowledged %d",
			res.Admitted+res.Rejected, acked1+acked2)
	}
}

// TestAdmitRefusesRequestsNamingNoQuery: a body that names no query — null,
// an empty object, a null batch member, an object whose only query is null
// — is answered 400, and nothing is priced or journaled for it or for the
// rest of its batch.
func TestAdmitRefusesRequestsNamingNoQuery(t *testing.T) {
	_, jn, s, _ := newNoSyncServer(t, 64)
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()
	for _, body := range []string{`null`, `{}`, `[null]`, `{"at_sec":1}`, `{"query":null}`, `[{"query":1},{}]`, `[{"query":1},null]`} {
		if code, data := post(t, ts.URL+"/admit", body); code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", body, code, data)
		}
	}
	if n := s.Offers(); n != 0 || jn.LSN() != 0 {
		t.Fatalf("refused bodies priced %d offers and journaled %d records", n, jn.LSN())
	}
	if code, data := post(t, ts.URL+"/admit", `{"query":0}`); code != http.StatusOK {
		t.Fatalf("a request naming query 0: %d %s", code, data)
	}
	if jn.LSN() != 1 {
		t.Fatalf("journal LSN %d after one admitted request", jn.LSN())
	}
}

// TestAdmitBodyCap: a body over maxAdmitBody is answered 413 and nothing of
// it is journaled, even when its first value is a well-formed batch.
func TestAdmitBodyCap(t *testing.T) {
	_, jn, s, _ := newNoSyncServer(t, 64)
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()
	var b strings.Builder
	b.WriteString(`[{"query":1}`)
	for b.Len() <= maxAdmitBody {
		b.WriteString(`,{"query":2,"at_sec":0.5,"hold_sec":0.25}`)
	}
	b.WriteString(`]`)
	if code, data := post(t, ts.URL+"/admit", b.String()); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: %d %.80s, want 413", b.Len(), code, data)
	}
	if n := s.Offers(); n != 0 || jn.LSN() != 0 {
		t.Fatalf("an oversized body priced %d offers and journaled %d records", n, jn.LSN())
	}
	if code, data := post(t, ts.URL+"/admit", `[{"query":1},{"query":2}]`); code != http.StatusOK {
		t.Fatalf("a small batch after the oversized one: %d %s", code, data)
	}
}
