// Package testbed emulates the paper's real testbed (§4.3) in-process: the
// paper leased 20 DigitalOcean VMs across San Francisco, New York, Toronto,
// and Singapore (4 data-center VMs + 16 cloudlet VMs) plus a local
// controller. Here every "VM" is a real TCP server on the loopback
// interface holding real usage records; wide-area distances are reproduced
// by injecting region-to-region latencies and a finite bandwidth on every
// message. The code path a production deployment would exercise — sockets,
// serialization, partial aggregation, fan-out/fan-in — runs for real; only
// the speed of light is simulated (DESIGN.md §4 documents the
// substitution).
package testbed

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"edgerep/internal/analytics"
	"edgerep/internal/workload"
)

// Op identifies a request type.
type Op string

const (
	// OpStore places dataset records on the node (replica creation).
	OpStore Op = "store"
	// OpAggregate computes a partial over a locally stored dataset.
	OpAggregate Op = "aggregate"
	// OpEvaluate runs a whole query: the receiving node is the query's
	// home; it fans out OpAggregate calls to replica nodes, merges the
	// partials and finalizes the result.
	OpEvaluate Op = "evaluate"
	// OpPing checks liveness.
	OpPing Op = "ping"
)

// FanoutTarget names the replica a home node must contact for one dataset
// during OpEvaluate.
type FanoutTarget struct {
	Dataset int    `json:"dataset"`
	Addr    string `json:"addr"`
	Region  string `json:"region"`
}

// Request is the wire request. One JSON object per connection.
type Request struct {
	Op      Op                     `json:"op"`
	Dataset int                    `json:"dataset,omitempty"`
	Records []workload.UsageRecord `json:"records,omitempty"`
	Query   analytics.Request      `json:"query,omitempty"`
	Fanout  []FanoutTarget         `json:"fanout,omitempty"`
	// FromRegion tells the receiver where the message came from so the
	// response path latency can be injected symmetrically.
	FromRegion string `json:"from_region,omitempty"`
	// BudgetMillis is the wall-clock budget for serving this request; 0
	// means the default call budget. An evaluating home node bounds its
	// whole fanout by it.
	BudgetMillis int64 `json:"budget_millis,omitempty"`
}

// Response is the wire response.
type Response struct {
	OK      bool               `json:"ok"`
	Error   string             `json:"error,omitempty"`
	Partial *analytics.Partial `json:"partial,omitempty"`
	Result  *analytics.Result  `json:"result,omitempty"`
}

// serverConnTimeout bounds how long a node keeps one accepted connection
// alive; handle sets it as the conn deadline so a client that connects and
// then hangs cannot pin a server goroutine forever.
const serverConnTimeout = 30 * time.Second

// writeMsg sends one JSON value followed by newline. I/O deadlines are the
// caller's job: clients derive them from the call budget (callCtx), servers
// set serverConnTimeout in handle.
func writeMsg(conn net.Conn, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("testbed: marshal: %w", err)
	}
	b = append(b, '\n')
	_, err = conn.Write(b)
	return err
}

// readMsg receives one newline-delimited JSON value.
func readMsg(r *bufio.Reader, v interface{}) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("testbed: read: %w", err)
	}
	return json.Unmarshal(line, v)
}

// messageBytes returns the serialized size of a value, used for bandwidth
// accounting in the latency model.
func messageBytes(v interface{}) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b) + 1
}
