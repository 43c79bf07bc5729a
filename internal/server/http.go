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
	"net"
	"net/http"
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

// admitHandler accepts one AdmitRequest object or a JSON array of them. A
// batch is enqueued as one queue entry before any decision is awaited, so it
// lands in as few micro-epochs as the size bound allows.
func (s *Server) admitHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	var reqs []AdmitRequest
	single := false
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &reqs); err != nil {
			http.Error(w, fmt.Sprintf("decode batch: %v", err), http.StatusBadRequest)
			return
		}
	} else {
		var one AdmitRequest
		if err := json.Unmarshal(raw, &one); err != nil {
			http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
			return
		}
		reqs = []AdmitRequest{one}
		single = true
	}
	if len(reqs) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	// Failover fence: every request's term is compared BEFORE anything is
	// enqueued or journaled (the termfence analyzer pins this ordering). A
	// stale term means the batch raced a leadership change; the whole batch
	// is answered 409 with the current term and the client re-offers.
	for _, req := range reqs {
		if err := s.CheckTerm(req.Term); err != nil {
			s.writeTermFence(w, reqs, single)
			return
		}
	}
	resps, status, err := s.dispatch(reqs)
	if err != nil {
		// Decisions already enqueued still execute (and journal); the
		// client sees the whole batch fail and may safely re-offer —
		// re-offering is an ordinary arrival, never a double-admit.
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if single {
		if err := enc.Encode(resps[0]); err != nil {
			return
		}
		return
	}
	if err := enc.Encode(resps); err != nil {
		return
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
func (s *Server) writeTermFence(w http.ResponseWriter, reqs []AdmitRequest, single bool) {
	cur := s.Term()
	resps := make([]AdmitResponse, len(reqs))
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
	enc := json.NewEncoder(w)
	if single {
		//lint:ignore ackorder a fenced batch is rejected before anything is enqueued or journaled; there is no decision to make durable
		if err := enc.Encode(resps[0]); err != nil {
			return
		}
		return
	}
	//lint:ignore ackorder a fenced batch is rejected before anything is enqueued or journaled; there is no decision to make durable
	if err := enc.Encode(resps); err != nil {
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
