package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgerep/internal/server"
)

// requestTimeout is when a POST counts as failed.
const requestTimeout = 5 * time.Second

// conn is one keep-alive client connection to the daemon: its own transport
// capped at a single connection, so "two connections" means two sockets.
type conn struct {
	hc  *http.Client
	url string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, url: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// warm opens the connection, so the first timed POST does not pay the dial.
func (c *conn) warm() error {
	resp, err := c.hc.Get(c.url + "/healthz")
	if err != nil {
		return fmt.Errorf("warm connection: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("warm connection: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm connection: /healthz answered %s", resp.Status)
	}
	return nil
}

// posted is what the client saw of one POST.
type posted struct {
	// encode, trip and decode partition the client's time: body marshal,
	// request written to reply body read, reply unmarshal.
	encode, trip, decode time.Duration
	// stageSum is the largest server-side stage sum among the reply's
	// decisions (zero unless attribution is on): the server's own account
	// of how long the POST's last decision took.
	stageSum time.Duration
	stages   [][]int64
	admitted int
}

// post offers reqs in one POST (a bare object for a single offer, as a lone
// edge client sends it) and checks the reply answers exactly those offers.
func (c *conn) post(r *runner, parent mark, id int64, reqs []server.AdmitRequest) (posted, error) {
	var out posted
	single := len(reqs) == 1
	m := r.tr.begin("bench.encode", parent, id)
	var body []byte
	var err error
	if single {
		body, err = json.Marshal(reqs[0])
	} else {
		body, err = json.Marshal(reqs)
	}
	out.encode = r.tr.end(m)
	if err != nil {
		return out, err
	}

	m = r.tr.begin("server.http_admit", parent, id)
	resp, err := c.hc.Post(c.url+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		out.trip = r.tr.end(m)
		return out, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	out.trip = r.tr.end(m)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST /admit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}

	m = r.tr.begin("bench.decode", parent, id)
	resps := make([]server.AdmitResponse, 1, len(reqs))
	if single {
		err = json.Unmarshal(data, &resps[0])
	} else {
		err = json.Unmarshal(data, &resps)
	}
	out.decode = r.tr.end(m)
	if err != nil {
		return out, fmt.Errorf("decode reply: %w", err)
	}
	if len(resps) != len(reqs) {
		return out, fmt.Errorf("reply has %d decisions for %d offers", len(resps), len(reqs))
	}
	for i := range resps {
		if resps[i].Query != reqs[i].Query {
			return out, fmt.Errorf("decision %d answers query %d, offered %d", i, resps[i].Query, reqs[i].Query)
		}
		if resps[i].Admitted {
			out.admitted++
		}
		if st := resps[i].StageNs; len(st) > 0 {
			var sum int64
			for _, ns := range st {
				sum += ns
			}
			if d := time.Duration(sum); d > out.stageSum {
				out.stageSum = d
			}
			out.stages = append(out.stages, st)
		}
	}
	return out, nil
}

// closedLoop runs ops 0..n-1 over the given number of workers, each starting
// its next op when its previous one returned.
func closedLoop(n, workers int, do func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// schedule draws n exponential inter-arrival gaps from the seed and returns
// the offsets from the start at which an open loop's requests fall due. The
// gaps are scaled so the last request is due at exactly n/rate: every seed
// offers the same load, only its burstiness differs.
func schedule(n int, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	sum := 0.0
	for i := range at {
		sum += rng.ExpFloat64()
		at[i] = sum
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(at[i] / sum * float64(n) / rate * float64(time.Second))
	}
	return due
}

// sleepSlack is how early sleepUntil wakes to spin: the runtime's timers
// fire up to about a millisecond late on an idle process, which is the same
// size as the latencies an open loop is there to measure.
const sleepSlack = 2 * time.Millisecond

// sleepUntil returns when start+at has come: it sleeps to within sleepSlack
// of it and yields the processor in a loop for the rest.
func sleepUntil(start time.Time, at time.Duration) {
	for {
		wait := at - time.Since(start)
		switch {
		case wait <= 0:
			return
		case wait > sleepSlack:
			time.Sleep(wait - sleepSlack)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop runs op i no earlier than start+due[i], whatever happened to the
// ops before it, over the given number of workers. It returns each op's
// latency clocked from its due time — so a stall is charged to every request
// that fell due during it, not only to the one that was in flight, and so is
// the wait for a free connection — and the generator's own lateness: how
// long after it could first have started the op (its due time, or the moment
// a worker came free if that was later) it actually did. sent is when the
// last op was started: the schedule's length if the generator kept up.
func openLoop(due []time.Duration, workers int, do func(worker, i int)) (latency, lag []time.Duration, sent time.Duration) {
	latency = make([]time.Duration, len(due))
	lag = make([]time.Duration, len(due))
	started := make([]time.Duration, len(due))
	start := time.Now()
	closedLoop(len(due), workers, func(w, i int) {
		earliest := time.Since(start)
		if earliest < due[i] {
			sleepUntil(start, due[i])
			earliest = due[i]
		}
		started[i] = time.Since(start)
		lag[i] = started[i] - earliest
		do(w, i)
		latency[i] = time.Since(start) - due[i]
	})
	for _, at := range started {
		sent = max(sent, at)
	}
	return latency, lag, sent
}
