package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"edgerep/internal/graph"
)

// jsonTopology is the interchange schema shared by edgerepgen (writer) and
// edgerepplace (reader): a self-contained description of the two-tier edge
// cloud that downstream tools can consume without re-running generation.
type jsonTopology struct {
	Nodes []jsonNode `json:"nodes"`
	Links []jsonLink `json:"links"`
}

type jsonNode struct {
	ID          int     `json:"id"`
	Kind        string  `json:"kind"`
	CapacityGHz float64 `json:"capacity_ghz"`
	ProcDelay   float64 `json:"proc_delay_per_gb"`
	Region      string  `json:"region"`
}

type jsonLink struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Delay float64 `json:"delay_per_gb"`
}

func kindFromString(s string) (NodeKind, error) {
	switch s {
	case "datacenter":
		return DataCenter, nil
	case "cloudlet":
		return Cloudlet, nil
	case "switch":
		return Switch, nil
	case "basestation":
		return BaseStation, nil
	default:
		return 0, fmt.Errorf("topology: unknown node kind %q", s)
	}
}

// Save writes the topology as indented JSON.
func (t *Topology) Save(w io.Writer) error {
	out := jsonTopology{}
	for _, n := range t.Nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID:          int(n.ID),
			Kind:        n.Kind.String(),
			CapacityGHz: n.CapacityGHz,
			ProcDelay:   n.ProcDelayPerGB,
			Region:      n.Region,
		})
	}
	for _, e := range t.Graph.Edges() {
		out.Links = append(out.Links, jsonLink{From: int(e.From), To: int(e.To), Delay: e.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a topology written by Save (or hand-authored in the same
// schema), rebuilding the graph; its delays are computed on first use, like
// a generated topology's. Node IDs must be dense 0..n-1 in order.
func Load(r io.Reader) (*Topology, error) {
	var in jsonTopology
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("topology: decode: %w", err)
	}
	if len(in.Nodes) == 0 {
		return nil, fmt.Errorf("topology: no nodes")
	}
	g := graph.New(len(in.Nodes))
	nodes := make([]Node, len(in.Nodes))
	var compute []graph.NodeID
	for i, jn := range in.Nodes {
		if jn.ID != i {
			return nil, fmt.Errorf("topology: node IDs must be dense and ordered; got %d at position %d", jn.ID, i)
		}
		kind, err := kindFromString(jn.Kind)
		if err != nil {
			return nil, err
		}
		if kind == DataCenter || kind == Cloudlet {
			if jn.CapacityGHz <= 0 {
				return nil, fmt.Errorf("topology: compute node %d has capacity %v", i, jn.CapacityGHz)
			}
			if jn.ProcDelay <= 0 {
				return nil, fmt.Errorf("topology: compute node %d has processing delay %v", i, jn.ProcDelay)
			}
			compute = append(compute, graph.NodeID(i))
		}
		nodes[i] = Node{
			ID:             graph.NodeID(i),
			Kind:           kind,
			CapacityGHz:    jn.CapacityGHz,
			ProcDelayPerGB: jn.ProcDelay,
			Region:         jn.Region,
		}
	}
	if len(compute) == 0 {
		return nil, fmt.Errorf("topology: no compute nodes")
	}
	for _, l := range in.Links {
		if l.From < 0 || l.From >= len(in.Nodes) || l.To < 0 || l.To >= len(in.Nodes) {
			return nil, fmt.Errorf("topology: link %d-%d out of range", l.From, l.To)
		}
		if l.Delay <= 0 {
			return nil, fmt.Errorf("topology: link %d-%d delay %v", l.From, l.To, l.Delay)
		}
		g.AddEdge(graph.NodeID(l.From), graph.NodeID(l.To), l.Delay)
	}
	return &Topology{
		Graph:        g,
		Nodes:        nodes,
		ComputeNodes: compute,
	}, nil
}
