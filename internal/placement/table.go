package placement

import (
	"math"
	"slices"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/par"
	"edgerep/internal/workload"
)

var statTableBuilds = instrument.NewCounter("placement.candidate_table_builds")

// Candidate is a compute node that evaluates a (query, demand) pair in time:
// its position in ComputeNodes, its ID, and its slack EvalDelay/DeadlineSec.
type Candidate struct {
	Index, Node int32
	Slack       float64
}

// CandidateTable is where one (query, demand) pair can be evaluated in time.
type CandidateTable struct {
	// Feasible lists the compute nodes MeetsDeadline accepts (delay ≤
	// deadline + 1e-12) by (delay, node); the first Strict of them meet the
	// deadline strictly (Admissible).
	Feasible []Candidate
	Strict   int
	// Closest is the finite-delay node of least delay (lowest ID on ties),
	// where a deadline rejection points; -1 when every delay is infinite.
	Closest graph.NodeID
}

// Admissible returns the nodes that meet the deadline strictly, by (delay,
// node). Along it the slack never falls (deadlines are positive, NewProblem),
// nor does a term w·slack with w ≥ 0, and a price fl(fl(a + w·slack) + r)
// with a, r ≥ 0 is at least its term (rounding is monotone): a search for
// the cheapest price can stop at the first term above the best price so far,
// as online's pickFast and core's planDemand do.
func (t *CandidateTable) Admissible() []Candidate { return t.Feasible[:t.Strict] }

// CandidateTables returns the candidate table of every (query, demand) pair:
// CandidateTables()[q][i] belongs to query q's i-th demand. The first call
// builds them on every core; every later call, from any reader or goroutine,
// returns the same tables, which callers must not modify. Each delay is
// evaluated once, into a per-worker scratch, and feeds all three things a
// table keeps; each query's entries are cut from one array.
func (p *Problem) CandidateTables() [][]CandidateTable {
	p.tablesOnce.Do(func() {
		compute := p.Cloud.ComputeNodes()
		procDelay := make([]float64, len(compute)) // d(v), by position in compute
		for i, v := range compute {
			procDelay[i] = p.Cloud.ProcDelayPerGB(v)
		}
		p.tables = make([][]CandidateTable, len(p.Queries))
		par.DoWith(len(p.Queries), func() *tableScratch { return &tableScratch{} }, func(s *tableScratch, qi int) {
			p.tables[qi] = p.queryTables(workload.QueryID(qi), procDelay, s)
		})
		statTableBuilds.Inc()
	})
	return p.tables
}

// tableScratch is what one table-building worker reuses from query to query.
type tableScratch struct {
	delays   []float64 // delays[di*C+i]: demand di's delay at the i-th compute node
	feasible []int32   // every demand's ε-tolerant positions, one run after another
	ends     []int     // ends[di]: where demand di's run ends
	starts   []int     // where each bucket of one demand's set starts
}

// queryTables builds the tables of query qid's demands: one pass over each
// demand's delays finds the closest node, counts the strict set and lists
// the ε-tolerant one, which is then put in (delay, node) order. A counting
// pass spreads a set over as many buckets as it has entries, evenly over its
// delay range and in delay order up to a bucket; one insertion pass with the
// exact comparison then sorts completely, whatever the buckets did, and has
// only entries that share a bucket to move (1.2 moves an entry on the bench
// instance).
func (p *Problem) queryTables(qid workload.QueryID, procDelay []float64, s *tableScratch) []CandidateTable {
	q := &p.Queries[qid]
	compute := p.Cloud.ComputeNodes()
	nc := len(compute)
	deadline := q.DeadlineSec
	tables := make([]CandidateTable, len(q.Demands))
	s.delays = slices.Grow(s.delays[:0], len(q.Demands)*nc)[:len(q.Demands)*nc]
	s.feasible, s.ends = s.feasible[:0], s.ends[:0]
	for di, dm := range q.Demands {
		t := &tables[di]
		t.Closest = -1
		closest := math.Inf(1)
		row := s.delays[di*nc : (di+1)*nc]
		p.delayRow(qid, dm.Dataset, procDelay, row)
		for i, delay := range row {
			if !math.IsInf(delay, 1) && delay < closest {
				t.Closest, closest = compute[i], delay
			}
			if delay <= deadline+1e-12 { // NaN fails both
				s.feasible = append(s.feasible, int32(i))
			}
			if delay <= deadline {
				t.Strict++
			}
		}
		s.ends = append(s.ends, len(s.feasible))
	}
	arena := make([]Candidate, len(s.feasible))
	start := 0
	for di, end := range s.ends {
		idx, row, set := s.feasible[start:end], s.delays[di*nc:(di+1)*nc], arena[start:end:end]
		start = end
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			lo, hi = min(lo, row[i]), max(hi, row[i])
		}
		scale := float64(len(set)) / (hi - lo)
		s.starts = slices.Grow(s.starts[:0], len(set)+1)[:len(set)+1]
		clear(s.starts)
		for _, i := range idx {
			s.starts[bucket((row[i]-lo)*scale, len(set))+1]++
		}
		for b := 1; b < len(set); b++ {
			s.starts[b] += s.starts[b-1]
		}
		for _, i := range idx {
			b := bucket((row[i]-lo)*scale, len(set))
			set[s.starts[b]] = Candidate{Index: i, Node: int32(compute[i]), Slack: row[i] / deadline}
			s.starts[b]++
		}
		for i := 1; i < len(set); i++ {
			x, d := set[i], row[set[i].Index]
			j := i
			for ; j > 0 && (d < row[set[j-1].Index] || d == row[set[j-1].Index] && x.Node < set[j-1].Node); j-- {
				set[j] = set[j-1]
			}
			set[j] = x
		}
		tables[di].Feasible = set
	}
	return tables
}

// bucket is the bucket of x, a position in [0, n] (NaN where a set's delays
// are all equal), among n buckets; it never falls as x rises.
func bucket(x float64, n int) int {
	if x >= 1 { // false for NaN
		return int(min(x, float64(n-1)))
	}
	return 0
}

// delayRow writes into row the delay of query q's dataset n at every compute
// node, in ComputeNodes order: EvalDelay's values bit for bit, with the
// demand scan, the dataset size and the home's delay row hoisted out of the
// loop. procDelay[i] is d(v) of the i-th compute node.
func (p *Problem) delayRow(q workload.QueryID, n workload.DatasetID, procDelay, row []float64) {
	d, _ := p.Demand(q, n) // the demand EvalDelay prices n by
	size, toHome := p.Datasets[n].SizeGB, p.Cloud.DelayTo(p.Queries[q].Home)
	for i, v := range p.Cloud.ComputeNodes() {
		row[i] = evalDelay(size, d.Selectivity, procDelay[i], toHome[v])
	}
}
