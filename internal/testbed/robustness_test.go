package testbed

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"edgerep/internal/analytics"
)

// hungListener accepts connections and never answers — the pathological
// peer: before conn deadlines, a call to it blocked the fanout forever.
func hungListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var conns []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn) // hold open, never read or write
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		close(done)
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
	})
	return ln
}

// TestCallTimesOutOnHungPeer: the regression test for the missing conn
// deadlines — callCtx against a peer that accepts and then hangs must return
// an i/o timeout within its budget, not stall.
func TestCallTimesOutOnHungPeer(t *testing.T) {
	ln := hungListener(t)
	lat := fastLatency()
	start := time.Now()
	_, err := callCtx(context.Background(), lat, "metro", "metro", ln.Addr().String(),
		&Request{Op: OpPing}, 200*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call to hung peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung peer stalled the call for %v", elapsed)
	}
}

// TestCallCtxCancelUnblocksHungPeer: cancelling the context must abort an
// in-flight exchange immediately, well before the budget deadline.
func TestCallCtxCancelUnblocksHungPeer(t *testing.T) {
	ln := hungListener(t)
	lat := fastLatency()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := callCtx(ctx, lat, "metro", "metro", ln.Addr().String(),
			&Request{Op: OpPing}, time.Minute)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled call succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the call")
	}
}

// TestEvaluateBudgetBoundsHungReplica: a fanout whose only replica hangs
// must come back within the request's budget, not after the 10s default.
func TestEvaluateBudgetBoundsHungReplica(t *testing.T) {
	c := smallCluster(t)
	ln := hungListener(t)
	home := c.Node(3)
	req := &Request{
		Op:           OpEvaluate,
		Query:        analytics.Request{Kind: analytics.DistinctUsers},
		FromRegion:   home.Region,
		BudgetMillis: 300,
		Fanout: []FanoutTarget{{
			Dataset: 0, Addr: ln.Addr().String(), Region: "metro",
		}},
	}
	start := time.Now()
	resp, err := call(c.lat, home.Region, home.Region, home.Addr(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("evaluate against a hung replica succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hung replica held the evaluate for %v", elapsed)
	}
}

// TestCloseDuringFailingEvaluateRace, under -race: a failing evaluate (a
// dead replica among several targets) must not leave sub-request goroutines
// dialing after the response, so closing the cluster mid-flight is clean.
func TestCloseDuringFailingEvaluateRace(t *testing.T) {
	cfg := ClusterConfig{
		DataCenterRegions: []string{"san-francisco", "singapore"},
		Cloudlets:         3,
		Latency:           fastLatency(),
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testTrace(t, 200)
	for ds, idx := range []int{1, 2} {
		if err := c.Place(idx, ds, recs); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one replica: target 0 will fail while target 1 is still working.
	if err := c.Node(1).Close(); err != nil {
		t.Fatal(err)
	}
	plan := QueryPlan{HomeIndex: 3, Query: analytics.Request{Kind: analytics.DistinctUsers}}
	for ds, idx := range []int{1, 2} {
		plan.Targets = append(plan.Targets, struct {
			Dataset   int
			NodeIndex int
		}{Dataset: ds, NodeIndex: idx})
	}
	evalDone := make(chan struct{})
	go func() {
		defer close(evalDone)
		_, _ = c.Evaluate(plan) // expected to fail; must not leak dials
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("close during failing evaluate: %v", err)
	}
	select {
	case <-evalDone:
	case <-time.After(30 * time.Second):
		t.Fatal("evaluate did not return after close")
	}
}

// TestEvaluateFailsWhenReplicaDown: a query whose replica is down fails
// with an error that names the dataset.
func TestEvaluateFailsWhenReplicaDown(t *testing.T) {
	c := smallCluster(t)
	recs := testTrace(t, 200)
	if err := c.Place(1, 0, recs); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(1).Close(); err != nil {
		t.Fatal(err)
	}
	plan := QueryPlan{HomeIndex: 3, Query: analytics.Request{Kind: analytics.DistinctUsers}}
	plan.Targets = append(plan.Targets, struct {
		Dataset   int
		NodeIndex int
	}{Dataset: 0, NodeIndex: 1})
	if _, err := c.Evaluate(plan); err == nil || !strings.Contains(err.Error(), "dataset 0") {
		t.Fatalf("expected replica failure, got %v", err)
	}
}
