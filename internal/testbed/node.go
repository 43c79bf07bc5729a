package testbed

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"edgerep/internal/analytics"
	"edgerep/internal/workload"
)

// defaultCallBudget bounds a call, and an evaluate's whole fanout when the
// request carries no BudgetMillis.
const defaultCallBudget = 10 * time.Second

// Node is one emulated VM: a TCP server storing dataset replicas and
// answering aggregation and evaluation requests.
type Node struct {
	Name   string
	Region string

	lat *LatencyModel
	ln  net.Listener

	mu    sync.Mutex
	store map[int][]workload.UsageRecord

	wg     sync.WaitGroup
	closed chan struct{}
}

// StartNode launches a node listening on 127.0.0.1:0.
func StartNode(name, region string, lat *LatencyModel) (*Node, error) {
	if lat == nil {
		return nil, fmt.Errorf("testbed: nil latency model")
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("testbed: listen: %w", err)
	}
	n := &Node{
		Name:   name,
		Region: region,
		lat:    lat,
		ln:     ln,
		store:  make(map[int][]workload.UsageRecord),
		closed: make(chan struct{}),
	}
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

// Addr returns the node's TCP address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

func (n *Node) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue // transient accept error
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			n.handle(conn)
		}()
	}
}

func (n *Node) handle(conn net.Conn) {
	// Bound the whole exchange: a client that connects and then hangs
	// cannot pin this goroutine past the server timeout.
	_ = conn.SetDeadline(time.Now().Add(serverConnTimeout))
	r := bufio.NewReader(conn)
	var req Request
	if err := readMsg(r, &req); err != nil {
		_ = writeMsg(conn, &Response{OK: false, Error: err.Error()})
		return
	}
	if req.BudgetMillis > 0 {
		// The client granted an evaluate a fanout budget; extend the
		// exchange deadline to cover it plus write slack.
		_ = conn.SetDeadline(time.Now().Add(time.Duration(req.BudgetMillis)*time.Millisecond + serverConnTimeout))
	}
	resp := n.dispatch(&req)
	// Inject the response-path latency before answering: the caller told
	// us where it sits.
	if req.FromRegion != "" {
		n.lat.sleep(n.Region, req.FromRegion, messageBytes(resp))
	}
	_ = writeMsg(conn, resp)
}

func (n *Node) dispatch(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpStore:
		n.mu.Lock()
		n.store[req.Dataset] = req.Records
		n.mu.Unlock()
		return &Response{OK: true}
	case OpAggregate:
		n.mu.Lock()
		recs, ok := n.store[req.Dataset]
		n.mu.Unlock()
		if !ok {
			return &Response{OK: false, Error: fmt.Sprintf("node %s: no replica of dataset %d", n.Name, req.Dataset)}
		}
		p, err := analytics.Aggregate(recs, req.Query)
		if err != nil {
			return &Response{OK: false, Error: err.Error()}
		}
		return &Response{OK: true, Partial: p}
	case OpEvaluate:
		return n.evaluate(req)
	default:
		return &Response{OK: false, Error: fmt.Sprintf("testbed: unknown op %q", req.Op)}
	}
}

// evaluate runs a query at this (home) node: fan out to every replica in
// parallel — the paper's model processes demanded datasets in parallel
// (§2.3) — merge the partials, finalize. The whole fanout runs under the
// request's budget (BudgetMillis, else defaultCallBudget); the first failure
// cancels the sibling workers so no sub-request outlives the response and
// races a Cluster.Close.
func (n *Node) evaluate(req *Request) *Response {
	if len(req.Fanout) == 0 {
		return &Response{OK: false, Error: "testbed: evaluate with empty fanout"}
	}
	budget := defaultCallBudget
	if req.BudgetMillis > 0 {
		budget = time.Duration(req.BudgetMillis) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	type fanoutResult struct {
		p   *analytics.Partial
		err error
	}
	// Buffered to len(Fanout): workers always complete their send, so the
	// early-error path below can cancel, drain, and still join every
	// worker before returning.
	results := make(chan fanoutResult, len(req.Fanout))
	var workers sync.WaitGroup
	for _, target := range req.Fanout {
		workers.Add(1)
		go func(tgt FanoutTarget) {
			defer workers.Done()
			sub := &Request{
				Op:         OpAggregate,
				Dataset:    tgt.Dataset,
				Query:      req.Query,
				FromRegion: n.Region,
			}
			resp, err := callCtx(ctx, n.lat, n.Region, tgt.Region, tgt.Addr, sub, budget)
			if err == nil && !resp.OK {
				err = errors.New(resp.Error)
			}
			if err != nil {
				results <- fanoutResult{err: fmt.Errorf("dataset %d: %w", tgt.Dataset, err)}
				return
			}
			results <- fanoutResult{p: resp.Partial}
		}(target)
	}
	var merged *analytics.Partial
	var firstErr error
	for range req.Fanout {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				// Stop sibling workers now; the loop keeps draining
				// their (buffered) results.
				firstErr = r.err
				cancel()
			}
			continue
		}
		if merged == nil {
			merged = r.p
		} else {
			merged.Merge(r.p)
		}
	}
	// Every worker has sent; join them so no goroutine (or its open conns)
	// outlives this response.
	workers.Wait()
	if firstErr != nil {
		return &Response{OK: false, Error: firstErr.Error()}
	}
	res, err := analytics.Finalize(merged, req.Query)
	if err != nil {
		return &Response{OK: false, Error: err.Error()}
	}
	return &Response{OK: true, Result: res}
}

// call dials addr, injects the request-path latency, sends the request and
// reads the response (whose return-path latency the server injects) under
// the default budget — the controller-plumbing entry point.
func call(lat *LatencyModel, fromRegion, toRegion, addr string, req *Request) (*Response, error) {
	return callCtx(context.Background(), lat, fromRegion, toRegion, addr, req, defaultCallBudget)
}

// callCtx is call with a context and an explicit wall-clock budget: the
// budget bounds dialing AND the read/write of the exchange (conn deadlines —
// a peer that accepts and then hangs returns an i/o timeout instead of
// stalling the fanout), and cancelling ctx aborts the exchange immediately.
func callCtx(ctx context.Context, lat *LatencyModel, fromRegion, toRegion, addr string, req *Request, budget time.Duration) (*Response, error) {
	lat.sleepCtx(ctx, fromRegion, toRegion, messageBytes(req))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = defaultCallBudget
	}
	d := net.Dialer{Timeout: budget}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("testbed: dial %s: %w", addr, err)
	}
	defer conn.Close()
	// The budget covers the whole exchange; ctx cancellation forces the
	// pending read/write to fail now rather than at the deadline.
	_ = conn.SetDeadline(time.Now().Add(budget))
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if err := writeMsg(conn, req); err != nil {
		return nil, err
	}
	var resp Response
	if err := readMsg(bufio.NewReader(conn), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
