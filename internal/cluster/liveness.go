package cluster

import (
	"sort"

	"edgerep/internal/graph"
)

// Liveness tracks which compute nodes are currently down. EdgeCloud stays
// capacity-only; failure state lives here so the online engine, the
// experiment drivers, and the invariant replays share one definition of
// "this node cannot serve".
type Liveness struct {
	down map[graph.NodeID]bool
	// gen counts state transitions. Consumers that mirror the down set into
	// a denser structure (the online engine's admission fast path) compare
	// generations as their epoch fence: an unchanged gen proves the mirror
	// is current without re-reading the map; a changed gen forces a refresh
	// before the mirror is consulted again.
	gen uint64
}

// NewLiveness starts with every node alive.
func NewLiveness() *Liveness {
	return &Liveness{down: make(map[graph.NodeID]bool)}
}

// MarkDown records node v as crashed. Reports whether the state changed
// (false when v was already down).
func (l *Liveness) MarkDown(v graph.NodeID) bool {
	if l.down[v] {
		return false
	}
	l.down[v] = true
	l.gen++
	return true
}

// MarkUp records node v as restored. Reports whether the state changed.
func (l *Liveness) MarkUp(v graph.NodeID) bool {
	if !l.down[v] {
		return false
	}
	delete(l.down, v)
	l.gen++
	return true
}

// Gen returns the liveness generation: it changes exactly when the down set
// changes, so an observer holding a mirror of the set knows the mirror is
// fresh iff the generation it was built at still matches. The caller owns
// synchronization, same as the rest of Liveness.
func (l *Liveness) Gen() uint64 { return l.gen }

// IsDown reports whether node v is crashed.
func (l *Liveness) IsDown(v graph.NodeID) bool { return l.down[v] }

// DownNodes returns the crashed nodes in ascending order (deterministic
// iteration for traces and reports).
func (l *Liveness) DownNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(l.down))
	for v := range l.down {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
