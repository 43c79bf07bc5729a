// HTTP binding of the admission server. The daemon mounts these routes on
// the same mux as the internal/ops endpoint, so one port serves admission
// (/admit), state (/state, /healthz), metrics (/metrics), sweep progress
// (/progress), and pprof (/debug/pprof/*). See OPERATIONS.md for the full
// endpoint map and curl-able examples.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"edgerep/internal/instrument"
	"edgerep/internal/online"
)

// Handler returns the daemon's route table. Paths the server does not own
// are delegated to fallback — cmd/edgerepd passes ops.Handler() so /metrics,
// /progress, and /debug/pprof/* ride on the same mux. A nil fallback 404s.
func (s *Server) Handler(fallback http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admit", s.admitHandler)
	mux.HandleFunc("/state", s.stateHandler)
	mux.HandleFunc("/healthz", s.healthHandler)
	if fallback != nil {
		mux.Handle("/", fallback)
	}
	return mux
}

// admitScratch is one /admit request's reusable memory: the body, the
// decoded requests, the POST's queue entry and replies, the responses and
// the encoded reply. The handler takes one from admitScratchPool and puts it
// back when it returns, by which time dispatch has seen every local decision
// stored, so the epoch loop no longer touches it.
type admitScratch struct {
	body  []byte
	reqs  []AdmitRequest
	post  postEntry
	resps []AdmitResponse
	out   []byte
}

var admitScratchPool = sync.Pool{New: func() any { return new(admitScratch) }}

// admitHandler accepts one AdmitRequest object or a JSON array of them (see
// codec.go for the wire format and OPERATIONS.md for what it refuses). A
// batch is enqueued as one queue entry before any decision is awaited, so it
// lands in as few micro-epochs as the size bound allows.
func (s *Server) admitHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := admitScratchPool.Get().(*admitScratch)
	defer func() {
		// Drop what the replies point at (the epochs' arenas) before pooling.
		clear(sc.post.replies)
		clear(sc.resps)
		admitScratchPool.Put(sc)
	}()
	var err error
	if sc.body, err = readBody(sc.body, http.MaxBytesReader(w, r.Body, maxAdmitBody), r.ContentLength); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", maxAdmitBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
		return
	}
	reqs, single, err := decodeAdmit(sc.body, sc.reqs)
	sc.reqs = reqs
	if err != nil {
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	// Failover fence: every request's term is compared BEFORE anything is
	// enqueued or journaled (the termfence analyzer pins this ordering). A
	// stale term means the batch raced a leadership change; the whole batch
	// is answered 409 with the current term and the client re-offers.
	for _, req := range reqs {
		if err := s.CheckTerm(req.Term); err != nil {
			s.writeTermFence(w, reqs, single, sc)
			return
		}
	}
	resps, status, err := s.dispatch(reqs, sc)
	if err != nil {
		// Decisions already enqueued still execute (and journal); the
		// client sees the whole batch fail. A re-offer is an ordinary
		// arrival, so a request that was admitted here is admitted again.
		http.Error(w, err.Error(), status)
		return
	}
	if sc.out, err = appendAdmitReply(sc.out[:0], resps, single); err != nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(sc.out); err != nil {
		return
	}
}

// readBody reads r to its end into buf[:0], growing it as needed; size, when
// positive, is the expected length (the request's Content-Length).
func readBody(buf []byte, r io.Reader, size int64) ([]byte, error) {
	buf = buf[:0]
	if size > 0 && size < maxAdmitBody {
		// One byte past the body, so the read that meets EOF needs no growth.
		buf = slices.Grow(buf, int(size)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// enqueueStatus maps an enqueue failure to its HTTP status: draining is the
// retryable 503, anything else is a malformed request.
func enqueueStatus(err error) int {
	if errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeTermFence answers a stale-term batch: 409 Conflict, every member
// rejected with ReasonLeaderFailover and the server's current term so the
// client can re-offer correctly fenced. Nothing was enqueued or journaled.
func (s *Server) writeTermFence(w http.ResponseWriter, reqs []AdmitRequest, single bool, sc *admitScratch) {
	cur := s.Term()
	resps := slices.Grow(sc.resps[:0], len(reqs))[:len(reqs)]
	sc.resps = resps
	for i, req := range reqs {
		resps[i] = AdmitResponse{
			Query:   req.Query,
			AtSec:   req.AtSec,
			Reason:  instrument.ReasonLeaderFailover,
			Dataset: -1,
			Node:    -1,
			Term:    cur,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	var err error
	if sc.out, err = appendAdmitReply(sc.out[:0], resps, single); err != nil {
		return
	}
	//lint:ignore ackorder a fenced batch is rejected before anything is enqueued or journaled; there is no decision to make durable
	if _, err := w.Write(sc.out); err != nil {
		return
	}
}

// stateHandler serves the engine's canonical state dump — the same object
// the journal snapshots, so an operator can diff a live daemon against a
// recovered one.
func (s *Server) stateHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	// The embedded EngineState keeps the payload a superset of the journal
	// snapshot (existing parsers ignore the extra key); fastpath adds the
	// admission tables' fence counters and the per-tier capacity shards.
	payload := struct {
		*online.EngineState
		FastPath online.FastPathStats `json:"fastpath"`
	}{s.StateDump(), s.FastPathStats()}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		return
	}
}

// healthHandler reports 200 while serving, 503 once draining.
func (s *Server) healthHandler(w http.ResponseWriter, _ *http.Request) {
	s.sendMu.RLock()
	draining := s.draining
	s.sendMu.RUnlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte("ok\n")); err != nil {
		return
	}
}

// Serve binds addr and serves handler in a background goroutine, enabling
// metric collection as a side effect (mirrors ops.Serve). It returns the
// bound address (useful with ":0") and a shutdown function that stops the
// listener without draining the admission queue — call Server.Drain for
// that.
func Serve(addr string, handler http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	instrument.Enable()
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	//lint:ignore goroexit acceptor lives for the process; the returned srv.Close stops it and Serve returns on listener close
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else has no
		// caller left to report to.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}
