// The HTTP load driver: the one mode that talks to a daemon instead of
// being one.

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"edgerep/internal/server"
	"edgerep/internal/workload"
)

type driveConfig struct {
	url     string
	count   int
	batch   int
	queries int
}

// runDrive POSTs -count queries in -batch sized /admit batches, reports the
// decision mix, and then asserts that /metrics serves the daemon's counters
// — the probe ci.sh's daemon gate relies on.
func runDrive(args []string) error {
	var cfg driveConfig
	fs := flag.NewFlagSet("edgerepd drive [flags] <daemon base URL>", flag.ContinueOnError)
	fs.IntVar(&cfg.count, "count", 200000, "total offers to submit")
	fs.IntVar(&cfg.batch, "batch", 64, "queries per HTTP batch")
	fs.IntVar(&cfg.queries, "queries", server.DefaultInstance().Queries, "the daemon's -queries: offers cycle through query IDs below it")
	if err := parse(fs, args, nil, &cfg.url); err != nil {
		return err
	}
	if cfg.queries < 1 || cfg.batch < 1 {
		return fmt.Errorf("-queries and -batch must be positive")
	}
	base := strings.TrimRight(cfg.url, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	admitted, rejected := 0, 0
	reasons := make(map[string]int)
	start := time.Now()
	for sent := 0; sent < cfg.count; {
		n := cfg.batch
		if rest := cfg.count - sent; n > rest {
			n = rest
		}
		reqs := make([]server.AdmitRequest, n)
		for i := range reqs {
			reqs[i] = server.AdmitRequest{Query: workload.QueryID((sent + i) % cfg.queries), HoldSec: 5}
		}
		body, err := json.Marshal(reqs)
		if err != nil {
			return err
		}
		resp, data, err := readAll(client.Post(base+"/admit", "application/json", bytes.NewReader(body)))
		if err != nil {
			return fmt.Errorf("POST /admit: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /admit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		var decs []server.AdmitResponse
		if err := json.Unmarshal(data, &decs); err != nil {
			return fmt.Errorf("decode /admit response: %w", err)
		}
		for _, d := range decs {
			if d.Admitted {
				admitted++
			} else {
				rejected++
				reasons[string(d.Reason)]++
			}
		}
		sent += n
	}
	elapsed := time.Since(start)
	fmt.Printf("edgerepd: drive %d offers in %s (%.0f decisions/s): admitted=%d rejected=%d",
		admitted+rejected, elapsed.Round(time.Millisecond),
		float64(admitted+rejected)/elapsed.Seconds(), admitted, rejected)
	names := make([]string, 0, len(reasons))
	for r := range reasons {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		fmt.Printf(" %s=%d", r, reasons[r])
	}
	fmt.Println()

	resp, data, err := readAll(client.Get(base + "/metrics"))
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("edgerep_server_offers")) {
		return fmt.Errorf("/metrics does not serve the daemon counters (status %s)", resp.Status)
	}
	fmt.Println("edgerepd: drive ok: /metrics serves the daemon counters")

	// The observability endpoints: live SLO windows and the flight recorder.
	// A 503 means the daemon was started with them off — noted, not fatal;
	// any other non-200, or a payload without the expected fields, is.
	for _, probe := range []struct{ path, want string }{
		{"/slo", "burn_rate"},
		{"/debug/flight", "entries"},
	} {
		resp, data, err := readAll(client.Get(base + probe.path))
		if err != nil {
			return fmt.Errorf("GET %s: %w", probe.path, err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			fmt.Printf("edgerepd: drive: %s disabled on the daemon, skipping probe\n", probe.path)
			continue
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(probe.want)) {
			return fmt.Errorf("%s does not serve live data (status %s)", probe.path, resp.Status)
		}
		fmt.Printf("edgerepd: drive ok: %s serves live data\n", probe.path)
	}
	return nil
}

// readAll finishes a request: the whole body, read and closed.
func readAll(resp *http.Response, err error) (*http.Response, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp, data, err
}
