package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

func TestTopologySaveLoadRoundTrip(t *testing.T) {
	top := MustGenerate(DefaultConfig())
	var buf bytes.Buffer
	if err := top.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumNodes() != top.Graph.NumNodes() || got.Graph.NumEdges() != top.Graph.NumEdges() {
		t.Fatalf("shape changed: %d/%d nodes, %d/%d edges",
			got.Graph.NumNodes(), top.Graph.NumNodes(), got.Graph.NumEdges(), top.Graph.NumEdges())
	}
	if got.NumCompute() != top.NumCompute() {
		t.Fatalf("compute count changed: %d vs %d", got.NumCompute(), top.NumCompute())
	}
	for i := range top.Nodes {
		a, b := top.Nodes[i], got.Nodes[i]
		if a.Kind != b.Kind || a.CapacityGHz != b.CapacityGHz ||
			a.ProcDelayPerGB != b.ProcDelayPerGB || a.Region != b.Region {
			t.Fatalf("node %d changed: %+v vs %+v", i, a, b)
		}
	}
	// Delay matrix must be rebuilt identically.
	for _, u := range top.ComputeNodes {
		for _, v := range top.ComputeNodes {
			if math.Abs(got.DelayTo(v)[u]-top.DelayTo(v)[u]) > 1e-9 {
				t.Fatalf("delay %d→%d changed", u, v)
			}
		}
	}
}

func TestTopologyLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":     "{",
		"empty":       `{"nodes":[],"links":[]}`,
		"bad-kind":    `{"nodes":[{"id":0,"kind":"quantum","capacity_ghz":1,"proc_delay_per_gb":1}]}`,
		"sparse-ids":  `{"nodes":[{"id":5,"kind":"cloudlet","capacity_ghz":1,"proc_delay_per_gb":1}]}`,
		"no-capacity": `{"nodes":[{"id":0,"kind":"cloudlet","capacity_ghz":0,"proc_delay_per_gb":1}]}`,
		"no-proc":     `{"nodes":[{"id":0,"kind":"cloudlet","capacity_ghz":1,"proc_delay_per_gb":0}]}`,
		"no-compute":  `{"nodes":[{"id":0,"kind":"switch"}]}`,
		"bad-link": `{"nodes":[{"id":0,"kind":"cloudlet","capacity_ghz":1,"proc_delay_per_gb":1},
			{"id":1,"kind":"cloudlet","capacity_ghz":1,"proc_delay_per_gb":1}],
			"links":[{"from":0,"to":9,"delay_per_gb":1}]}`,
		"bad-delay": `{"nodes":[{"id":0,"kind":"cloudlet","capacity_ghz":1,"proc_delay_per_gb":1},
			{"id":1,"kind":"cloudlet","capacity_ghz":1,"proc_delay_per_gb":1}],
			"links":[{"from":0,"to":1,"delay_per_gb":0}]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTopologyLoadMinimalHandAuthored(t *testing.T) {
	in := `{
	  "nodes": [
	    {"id":0,"kind":"datacenter","capacity_ghz":100,"proc_delay_per_gb":0.4,"region":"dc"},
	    {"id":1,"kind":"cloudlet","capacity_ghz":10,"proc_delay_per_gb":1.0,"region":"metro"}
	  ],
	  "links": [{"from":0,"to":1,"delay_per_gb":0.5}]
	}`
	top, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if top.NumCompute() != 2 {
		t.Fatalf("compute = %d", top.NumCompute())
	}
	if d := top.DelayTo(1)[0]; d != 0.5 {
		t.Fatalf("delay = %v, want 0.5", d)
	}
}

// TestGenerateBytesPinned pins what Generate draws: the saved bytes of the
// 30-, 100- and 500-node topologies are those of the generator that asked
// Graph.HasEdge for every pair of its GT-ITM loop. Every instance the daemon,
// the bench and the figures run on comes from these draws.
func TestGenerateBytesPinned(t *testing.T) {
	for n, want := range map[int]string{
		30:  "c2c61c42058ee6a27dfdcd9a88841d4820f68e1af0124330bc4ab48725345968",
		100: "218d735862b888f1227bbf799a63e1708c9a6ade2c5063ef50f6a7fd4f5d6bf6",
		500: "422174b18b72252e07d03d0cefa610e7437c29f3bf04deb88029872538a00669",
	} {
		h := sha256.New()
		if err := MustGenerate(ScaledConfig(n, 1)).Save(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("ScaledConfig(%d, 1) saves as sha256 %s, want %s", n, got, want)
		}
	}
}
