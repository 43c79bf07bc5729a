package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: which layer function,
// when, caused by which span, for which request. Spans of one request (one
// POST, one failover round) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// mark is an open span: a stopwatch that is also recorded when tracing is on.
type mark struct {
	id    int
	start time.Time
}

// tracer times every call into a layer. It always measures; it keeps spans
// (in memory, written out at exit) only in a traced run, so the end-to-end
// run pays two clock reads per call and nothing else.
type tracer struct {
	on   bool
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) begin(name string, parent mark, req int64) mark {
	m := mark{start: time.Now()}
	if !t.on {
		return m
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent.id, Req: req, Name: name,
		Start: m.start.Sub(t.base).Nanoseconds()})
	m.id = len(t.spans)
	t.mu.Unlock()
	return m
}

func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if m.id > 0 {
		t.mu.Lock()
		t.spans[m.id-1].End = now.Sub(t.base).Nanoseconds()
		t.mu.Unlock()
	}
	return now.Sub(m.start)
}

// layerTime is the rollup of one span name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the part of each span its children cover.
	Self time.Duration
}

// selfTimes rolls the recorded spans up by name. A span's self time is its
// duration minus the union of its children's intervals, so concurrent
// children (two client connections under one section) are not counted twice.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < at {
			lo = at
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

func (t *tracer) printSelfTimes(w io.Writer) {
	rows := t.selfTimes()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-28s %8s %14s %14s\n", "span", "count", "total", "self")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %14s %14s\n", r.Name, r.Count, r.Total, r.Self)
	}
}

// write dumps the spans as JSONL, one span a line, in start order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // as above
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
