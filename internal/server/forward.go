// Cross-shard forwarding: in a federation each regional controller owns a
// static shard of cloudlets, so a query whose home cloudlet belongs to
// another region must be priced by that region's engine — this server's
// engine journals crashes for every node it does not own and would reject
// the query as node-crashed. The Router maps a query to its owning shard and
// proxies non-owned admissions to the owning controller's /admit, keeping
// the client-facing contract (any region answers any query) while each
// journal stays a single-shard history.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"

	"edgerep/internal/workload"
)

// Router decides which shard owns each query and knows how to reach the
// peers. Immutable after SetRouter; safe for concurrent handlers.
type Router struct {
	// Self is this controller's shard index.
	Self int
	// Owner maps a query to the shard that owns its home cloudlet.
	Owner func(q workload.QueryID) int
	// Peers maps shard index to the base URL (http://host:port) of that
	// shard's current leader.
	Peers map[int]string
	// Client performs the forwarded POSTs; nil means a 5s-timeout default.
	Client *http.Client
}

func (rt *Router) client() *http.Client {
	if rt.Client != nil {
		return rt.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// SetRouter installs (or atomically replaces) the forwarding table. A
// failover drill swaps routers on live servers when a peer's leader changes,
// so the slot is an atomic pointer: handlers in flight keep the table they
// loaded, new requests see the new one.
func (s *Server) SetRouter(rt *Router) { s.router.Store(rt) }

// Forward proxies a batch of admissions to the shard's leader and returns
// the decisions in request order. The forwarded hop strips the client's
// term: fencing is between a client and the leader it targeted, and the
// owning region's leader fences (or answers) under its own term, which comes
// back to the client in each AdmitResponse.Term.
func (rt *Router) Forward(shard int, reqs []AdmitRequest) ([]AdmitResponse, error) {
	base, ok := rt.Peers[shard]
	if !ok {
		return nil, fmt.Errorf("server: no peer for shard %d", shard)
	}
	hop := make([]AdmitRequest, len(reqs))
	copy(hop, reqs)
	for i := range hop {
		hop[i].Term = 0
	}
	body, err := json.Marshal(hop)
	if err != nil {
		return nil, fmt.Errorf("server: marshal forward batch: %w", err)
	}
	resp, err := rt.client().Post(base+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: forward to shard %d: %w", shard, err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server: shard %d answered %d: %s", shard, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out []AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("server: decode forward response from shard %d: %w", shard, err)
	}
	if len(out) != len(reqs) {
		return nil, fmt.Errorf("server: shard %d answered %d decisions for %d requests", shard, len(out), len(reqs))
	}
	statForwarded.Add(int64(len(reqs)))
	return out, nil
}

// dispatch prices a decoded batch: requests owned by this shard go through
// the local epoch loop as one queue entry (enqueued in order before any
// decision is awaited, preserving the ordering contract), requests owned by
// another shard are forwarded in one batch per peer. Responses come back in
// request order, in sc.resps. Once dispatch has enqueued anything it waits
// for every local decision before it returns, error or not, so the caller
// may reuse sc. On error the returned status is the HTTP code the handler
// should answer.
func (s *Server) dispatch(reqs []AdmitRequest, sc *admitScratch) ([]AdmitResponse, int, error) {
	rt := s.router.Load()
	resps := slices.Grow(sc.resps[:0], len(reqs))[:len(reqs)]
	sc.resps = resps
	// own is the locally owned part of reqs; local[k] is own[k]'s index in
	// reqs, or nil when every request is owned here (own is reqs).
	own, local := reqs, []int(nil)
	var remote map[int][]int
	if rt != nil && rt.Owner != nil {
		own, local = nil, nil
		remote = make(map[int][]int)
		for i, req := range reqs {
			if shard := rt.Owner(req.Query); shard != rt.Self {
				remote[shard] = append(remote[shard], i)
				continue
			}
			own = append(own, req)
			local = append(local, i)
		}
	}
	if len(own) > 0 {
		if err := s.enqueuePost(&sc.post, own); err != nil {
			return nil, enqueueStatus(err), err
		}
	}
	var status int
	var err error
	shards := make([]int, 0, len(remote))
	for shard := range remote {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		idxs := remote[shard]
		batch := make([]AdmitRequest, len(idxs))
		for k, i := range idxs {
			batch[k] = reqs[i]
		}
		out, ferr := rt.Forward(shard, batch)
		if ferr != nil {
			status, err = http.StatusBadGateway, ferr
			break
		}
		for k, i := range idxs {
			resps[i] = out[k]
		}
	}
	if len(own) > 0 {
		<-sc.post.done
		for k, res := range sc.post.replies {
			if res.err != nil && err == nil {
				status, err = http.StatusInternalServerError, res.err
			}
			i := k
			if local != nil {
				i = local[k]
			}
			resps[i] = res.resp
		}
	}
	if err != nil {
		return nil, status, err
	}
	return resps, http.StatusOK, nil
}
