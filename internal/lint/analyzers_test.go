package lint

import (
	"strings"
	"testing"
)

// fixture is one in-memory source snippet run through a single analyzer:
// positive fixtures must produce at least one finding containing wantSub,
// negative fixtures must produce none. These catch analyzer regressions
// without walking the real tree (TestLintRepo does that).
type fixture struct {
	name     string
	analyzer string
	// filename controls the package scoping (e.g. internal/graph is exempt
	// from distviacache); default "internal/fix/fix.go".
	filename string
	src      string
	wantSub  string // non-empty = positive fixture, substring of the message
}

var fixtures = []fixture{
	// --- seededrand ---
	{
		name:     "wall-clock seed flagged",
		analyzer: "seededrand",
		src: `package fix
import ("math/rand"; "time")
func f() *rand.Rand { return rand.New(rand.NewSource(time.Now().UnixNano())) }
`,
		wantSub: "time.Now()",
	},
	{
		name:     "opaque call seed flagged",
		analyzer: "seededrand",
		src: `package fix
import "math/rand"
func pid() int64 { return 4 }
func f() rand.Source { return rand.NewSource(pid()) }
`,
		wantSub: "does not trace to a Seed field",
	},
	{
		name:     "opaque source for rand.New flagged",
		analyzer: "seededrand",
		src: `package fix
import "math/rand"
func src() rand.Source { return nil }
func f() *rand.Rand { return rand.New(src()) }
`,
		wantSub: "hides its seed",
	},
	{
		name:     "config Seed field ok",
		analyzer: "seededrand",
		src: `package fix
import "math/rand"
type cfg struct{ Seed int64 }
func f(c cfg) *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }
`,
	},
	{
		name:     "literal and derived seeds ok",
		analyzer: "seededrand",
		src: `package fix
import "math/rand"
func f(seed int64, i int) {
	_ = rand.New(rand.NewSource(42))
	_ = rand.NewSource(seed*2 + 1)
	_ = rand.NewSource(int64(i) + seed)
	_ = rand.NewSource(permSeed)
}
var permSeed int64
`,
	},

	// --- distviacache ---
	{
		name:     "typed call of the real graph Dijkstra flagged",
		analyzer: "distviacache",
		src: `package fix
import "edgerep/internal/graph"
func f(g *graph.Graph) { _ = g.Dijkstra(0) }
`,
		wantSub: "Dijkstra",
	},
	{
		name:     "unresolved Dijkstra call falls back to the name match",
		analyzer: "distviacache",
		src: `package fix
func f() { g.Dijkstra(0) }
`,
		wantSub: "Dijkstra",
	},
	{
		name:     "same-named method on an unrelated type not flagged",
		analyzer: "distviacache",
		src: `package fix
type router struct{}
func (router) Dijkstra(int) int { return 0 }
func f(r router) { _ = r.Dijkstra(0) }
`,
	},
	{
		name:     "internal/graph itself exempt",
		analyzer: "distviacache",
		filename: "internal/graph/x.go",
		src: `package graph
func f(g *Graph) { _ = g.Dijkstra(0) }
type Graph struct{}
func (g *Graph) Dijkstra(int) int { return 0 }
`,
	},
	{
		name:     "DistanceCache lookups ok",
		analyzer: "distviacache",
		src: `package fix
func f(c interface {
	Shortest(int) int
	Between(int, int) float64
	Matrix() int
}) {
	_ = c.Shortest(0)
	_ = c.Between(0, 1)
	_ = c.Matrix()
}
`,
	},

	// --- infsentinel ---
	{
		name:     "magic huge constant flagged",
		analyzer: "infsentinel",
		src: `package fix
func f(d float64) bool { return d == 1e18 }
`,
		wantSub: "magic huge constant",
	},
	{
		name:     "huge constant ordering flagged too",
		analyzer: "infsentinel",
		src: `package fix
func f(d float64) bool { return d < 999_999_999_999_999 }
`,
		wantSub: "magic huge constant",
	},
	{
		name:     "distance equality flagged",
		analyzer: "infsentinel",
		src: `package fix
func f(m interface{ Between(int, int) float64 }, d float64) bool { return m.Between(0, 1) == d }
`,
		wantSub: "==/!= on a float64 distance",
	},
	{
		name:     "Dist index equality flagged",
		analyzer: "infsentinel",
		src: `package fix
type sp struct{ Dist []float64 }
func f(s sp, d float64) bool { return s.Dist[3] != d }
`,
		wantSub: "==/!= on a float64 distance",
	},
	{
		name:     "Infinity sentinel and IsInf ok",
		analyzer: "infsentinel",
		src: `package fix
import "math"
var Infinity = math.Inf(1)
func f(m interface{ Between(int, int) float64 }, deadline float64) bool {
	if m.Between(0, 1) == Infinity {
		return false
	}
	if math.IsInf(m.Between(0, 1), 1) {
		return false
	}
	return m.Between(0, 1) <= deadline
}
`,
	},

	// --- droppederr ---
	{
		name:     "bare call to repo error function flagged",
		analyzer: "droppederr",
		src: `package fix
func save() error { return nil }
func f() { save() }
`,
		wantSub: "result of save is discarded",
	},
	{
		name:     "bare Encode flagged",
		analyzer: "droppederr",
		src: `package fix
import "encoding/json"
import "os"
func f() { json.NewEncoder(os.Stdout).Encode(42) }
`,
		wantSub: "result of Encode is discarded",
	},
	{
		name:     "handled and explicitly discarded ok",
		analyzer: "droppederr",
		src: `package fix
func save() error { return nil }
func f() error {
	if err := save(); err != nil {
		return err
	}
	_ = save()
	defer save()
	return nil
}
`,
	},
	{
		name:     "void function with same-name error sibling not flagged",
		analyzer: "droppederr",
		src: `package fix
type a struct{}
func (a) Close() error { return nil }
type b struct{}
func (b) Close() {}
func f(x b) { x.Close() }
`,
	},
	{
		name:     "bare file Sync flagged on journal write path",
		analyzer: "droppederr",
		src: `package fix
import "os"
func f(fh *os.File) { fh.Sync() }
`,
		wantSub: "result of Sync is discarded",
	},
	{
		name:     "bare file Close flagged when no error-less Close exists",
		analyzer: "droppederr",
		src: `package fix
import "os"
func f(fh *os.File) { fh.Close() }
`,
		wantSub: "result of Close is discarded",
	},
	{
		name:     "checked and explicitly discarded Sync/Close ok",
		analyzer: "droppederr",
		src: `package fix
import "os"
func f(fh *os.File) error {
	if err := fh.Sync(); err != nil {
		return err
	}
	defer fh.Close()
	_ = fh.Sync()
	return fh.Close()
}
`,
	},

	// --- instrreg ---
	{
		name:     "metric inside function flagged",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
func f() { _ = instrument.NewCounter("fix.calls") }
`,
		wantSub: "inside a function",
	},
	{
		name:     "non-literal metric name flagged",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
var name = "fix.calls"
var c = instrument.NewCounter(name)
`,
		wantSub: "string literal",
	},
	{
		name:     "duplicate metric name flagged",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
var (
	a = instrument.NewCounter("fix.calls")
	b = instrument.NewTimer("fix.calls")
)
`,
		wantSub: "already registered",
	},
	{
		name:     "package-level unique metrics ok",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
var (
	calls = instrument.NewCounter("fix.calls")
	t     = instrument.NewTimer("fix.latency")
)
`,
	},
	{
		name:     "histogram inside function flagged",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
func f() { _ = instrument.NewHistogram("fix.delay", 1, 5) }
`,
		wantSub: "inside a function",
	},
	{
		name:     "duplicate gauge vs histogram name flagged",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
var (
	h = instrument.NewHistogram("fix.util", 1, 5)
	g = instrument.NewGauge("fix.util")
)
`,
		wantSub: "already registered",
	},
	{
		name:     "non-literal gauge name flagged",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
var name = "fix.util"
var g = instrument.NewGauge(name)
`,
		wantSub: "string literal",
	},
	{
		name:     "package-level histogram and gauge ok",
		analyzer: "instrreg",
		src: `package fix
import "edgerep/internal/instrument"
var (
	h = instrument.NewHistogram("fix.delay", 0.1, 1, 10)
	g = instrument.NewGauge("fix.util")
)
`,
	},

	// --- tracereason ---
	{
		name:     "free-string Reason field flagged",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f() instrument.TraceEvent {
	return instrument.TraceEvent{Reason: "out-of-luck"}
}
`,
		wantSub: "free string literal",
	},
	{
		name:     "free-string Reason assignment flagged",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f() {
	var ev instrument.TraceEvent
	ev.Reason = "nope"
	_ = ev
}
`,
		wantSub: "free string literal",
	},
	{
		name:     "Reason conversion of literal flagged",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f() instrument.Reason { return instrument.Reason("made-up") }
`,
		wantSub: "Reason conversion",
	},
	{
		name:     "spelled-out robustness reason names its constant",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f() {
	var ev instrument.TraceEvent
	ev.Reason = "node-crashed"
	_ = ev
}
`,
		wantSub: "instrument.ReasonNodeCrashed",
	},
	{
		name:     "Reason compared against literal flagged",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f(ev instrument.TraceEvent) bool {
	return ev.Reason == "retry-exhausted"
}
`,
		wantSub: "instrument.ReasonRetryExhausted",
	},
	{
		name:     "repaired literal in composite flagged",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f() instrument.TraceEvent {
	return instrument.TraceEvent{Reason: "repaired"}
}
`,
		wantSub: "instrument.ReasonRepaired",
	},
	{
		name:     "empty-reason check ok",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f(ev instrument.TraceEvent) bool {
	return ev.Reason == ""
}
`,
	},
	{
		name:     "robustness constants ok",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f(crashed bool) instrument.TraceEvent {
	ev := instrument.TraceEvent{Reason: instrument.ReasonRepaired}
	if crashed {
		ev.Reason = instrument.ReasonNodeCrashed
	}
	if ev.Reason == instrument.ReasonRetryExhausted {
		ev.Reason = instrument.ReasonNodeCrashed
	}
	return ev
}
`,
	},
	{
		name:     "typed Reason constants ok",
		analyzer: "tracereason",
		src: `package fix
import "edgerep/internal/instrument"
func f(capacityLeft bool) instrument.TraceEvent {
	ev := instrument.TraceEvent{Reason: instrument.ReasonDeadline}
	if !capacityLeft {
		ev.Reason = instrument.ReasonCapacity
	}
	return ev
}
`,
	},
	{
		name:     "test files exempt from tracereason",
		analyzer: "tracereason",
		filename: "internal/fix/fix_test.go",
		src: `package fix
import "edgerep/internal/instrument"
func forge() instrument.Reason { return instrument.Reason("forged-for-tampering-test") }
`,
	},

	// --- pkgdoc ---
	{
		name:     "library package without any doc comment",
		analyzer: "pkgdoc",
		src: `package fix

func f() {}
`,
		wantSub: "no canonical package comment",
	},
	{
		name:     "library package with a non-canonical doc only",
		analyzer: "pkgdoc",
		src: `// Helpers for fixing things.
package fix

func f() {}
`,
		wantSub: "'// Package fix ...'",
	},
	{
		name:     "canonical library package doc ok",
		analyzer: "pkgdoc",
		src: `// Package fix fixes things that need fixing.
package fix

func f() {}
`,
	},
	{
		name:     "main package without doc comment",
		analyzer: "pkgdoc",
		filename: "cmd/fix/main.go",
		src: `package main

func main() {}
`,
		wantSub: "describe the command",
	},
	{
		name:     "main package with a command doc ok",
		analyzer: "pkgdoc",
		filename: "cmd/fix/main.go",
		src: `// Command fix fixes things from the command line.
package main

func main() {}
`,
	},
	{
		name:     "test files exempt from pkgdoc",
		analyzer: "pkgdoc",
		filename: "internal/fix/fix_test.go",
		src: `package fix

func helper() {}
`,
	},

	// --- maporder ---
	{
		name:     "fmt output inside map range flagged",
		analyzer: "maporder",
		src: `package fix
import "fmt"
func f(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
		wantSub: "range over a map",
	},
	{
		name:     "json encode inside map range flagged",
		analyzer: "maporder",
		src: `package fix
import ("encoding/json"; "os")
func f(m map[string]float64) {
	enc := json.NewEncoder(os.Stdout)
	for k, v := range m {
		_ = enc.Encode(struct {
			K string
			V float64
		}{k, v})
	}
}
`,
		wantSub: "json Encode emits inside a range over a map",
	},
	{
		name:     "collect-sort-emit pattern ok",
		analyzer: "maporder",
		src: `package fix
import ("fmt"; "sort")
func f(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}
`,
	},
	{
		name:     "map range that only accumulates ok",
		analyzer: "maporder",
		src: `package fix
func sum(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
`,
	},

	// --- wallclock ---
	{
		name:     "time.Now in a deterministic package flagged",
		analyzer: "wallclock",
		filename: "internal/core/fix.go",
		src: `package fix
import "time"
func f() int64 { return time.Now().UnixNano() }
`,
		wantSub: "time.Now in deterministic package internal/core",
	},
	{
		name:     "argless timer in a deterministic package flagged",
		analyzer: "wallclock",
		filename: "internal/sim/fix.go",
		src: `package fix
import "time"
func f() *time.Timer { return time.NewTimer(time.Second) }
`,
		wantSub: "time.NewTimer in deterministic package internal/sim",
	},
	{
		name:     "wall clock outside deterministic packages ok",
		analyzer: "wallclock",
		filename: "internal/ops/fix.go",
		src: `package fix
import "time"
func f() time.Duration { return time.Since(time.Now()) }
`,
	},
	{
		name:     "duration constants in deterministic package ok",
		analyzer: "wallclock",
		filename: "internal/journal/fix.go",
		src: `package fix
import "time"
const flushEvery = 5 * time.Second
func f(d time.Duration) bool { return d > flushEvery }
`,
	},
	{
		name:     "finding directs to the sanctioned monotonic source",
		analyzer: "wallclock",
		filename: "internal/online/fix.go",
		src: `package fix
import "time"
func f() time.Time { return time.Now() }
`,
		wantSub: "instrument.Mono",
	},
	{
		name:     "instrument.Mono in deterministic package ok",
		analyzer: "wallclock",
		filename: "internal/core/fix.go",
		src: `package fix
import (
	"time"

	"edgerep/internal/instrument"
)
func f() time.Duration {
	start := instrument.Mono()
	return instrument.Mono() - start
}
`,
	},
	{
		name:     "injected instrument.Clock in deterministic package ok",
		analyzer: "wallclock",
		filename: "internal/sim/fix.go",
		src: `package fix
import (
	"time"

	"edgerep/internal/instrument"
)
func f(c instrument.Clock) time.Duration {
	if c == nil {
		c = instrument.MonoClock()
	}
	return c()
}
`,
	},

	// --- ackorder ---
	{
		name:     "result send with no journal step flagged",
		analyzer: "ackorder",
		filename: "internal/server/fix.go",
		src: `package fix
type result struct{ ok bool }
func f(ch chan result) { ch <- result{ok: true} }
`,
		wantSub: "result send is not preceded",
	},
	{
		name:     "AdmitResponse encode with no journal step flagged",
		analyzer: "ackorder",
		filename: "internal/server/fix.go",
		src: `package fix
import ("encoding/json"; "io")
type AdmitResponse struct{ Admitted bool }
func h(w io.Writer) { _ = json.NewEncoder(w).Encode(AdmitResponse{Admitted: true}) }
`,
		wantSub: "AdmitResponse encode is not preceded",
	},
	{
		name:     "append-then-ack ok",
		analyzer: "ackorder",
		filename: "internal/server/fix.go",
		src: `package fix
type result struct{ ok bool }
type wal struct{}
func (wal) Append(b []byte) (int64, error) { return 0, nil }
func (wal) Commit() error { return nil }
func f(j wal, ch chan result) {
	if _, err := j.Append(nil); err != nil {
		return
	}
	if err := j.Commit(); err != nil {
		return
	}
	ch <- result{ok: true}
}
`,
	},
	{
		name:     "ack after Offer but before the commit flagged",
		analyzer: "ackorder",
		filename: "internal/server/fix.go",
		src: `package fix
type result struct{ ok bool }
type engine struct{}
func (engine) Offer(q int) error { return nil }
func (engine) Commit() error { return nil }
func f(e engine, ch chan result) {
	if err := e.Offer(1); err != nil {
		return
	}
	ch <- result{ok: true}
	if err := e.Commit(); err != nil {
		return
	}
}
`,
		wantSub: "result send is not preceded",
	},
	{
		name:     "receive-then-encode handler shape ok",
		analyzer: "ackorder",
		filename: "internal/server/fix.go",
		src: `package fix
import ("encoding/json"; "io")
type AdmitResponse struct{ Admitted bool }
type result struct{ resp AdmitResponse }
func h(w io.Writer, ch chan result) {
	res := <-ch
	_ = json.NewEncoder(w).Encode(res.resp)
}
`,
	},
	{
		name:     "result sends outside internal/server not in scope",
		analyzer: "ackorder",
		src: `package fix
type result struct{ ok bool }
func f(ch chan result) { ch <- result{ok: true} }
`,
	},

	// --- goroexit ---
	{
		name:     "unbounded goroutine flagged",
		analyzer: "goroexit",
		filename: "internal/ops/fix.go",
		src: `package fix
func f(work func()) {
	go func() {
		for {
			work()
		}
	}()
}
`,
		wantSub: "no join or bound",
	},
	{
		name:     "waitgroup-joined goroutine ok",
		analyzer: "goroexit",
		filename: "internal/testbed/fix.go",
		src: `package fix
import "sync"
func f(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
`,
	},
	{
		name:     "named method goroutine with close evidence ok",
		analyzer: "goroexit",
		filename: "internal/server/fix.go",
		src: `package fix
type loop struct{ done chan struct{} }
func (l *loop) run() { defer close(l.done) }
func f(l *loop) { go l.run() }
`,
	},
	{
		name:     "goroutines outside the serving packages not in scope",
		analyzer: "goroexit",
		src: `package fix
func f(work func()) { go work() }
`,
	},

	// --- lockdiscipline ---
	{
		name:     "mutex passed by value flagged",
		analyzer: "lockdiscipline",
		src: `package fix
import "sync"
func f(mu sync.Mutex) {
	mu.Lock()
	mu.Unlock()
}
`,
		wantSub: "passed by value",
	},
	{
		name:     "early return without unlock flagged",
		analyzer: "lockdiscipline",
		src: `package fix
import "sync"
type s struct {
	mu sync.Mutex
	n  int
}
func (x *s) f(b bool) int {
	x.mu.Lock()
	if b {
		return 0
	}
	x.mu.Unlock()
	return x.n
}
`,
		wantSub: "returns without releasing",
	},
	{
		name:     "lock never released flagged",
		analyzer: "lockdiscipline",
		src: `package fix
import "sync"
var mu sync.Mutex
func f() {
	mu.Lock()
}
`,
		wantSub: "has no defer Unlock",
	},
	{
		name:     "defer unlock and per-path unlock ok",
		analyzer: "lockdiscipline",
		src: `package fix
import "sync"
type s struct {
	mu       sync.Mutex
	rw       sync.RWMutex
	draining bool
	n        int
}
func (x *s) f() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.n
}
func (x *s) g() bool {
	x.rw.RLock()
	if x.draining {
		x.rw.RUnlock()
		return true
	}
	x.rw.RUnlock()
	return false
}
`,
	},
	{
		name:     "domain type with a Lock method not in scope",
		analyzer: "lockdiscipline",
		src: `package fix
type pidfile struct{}
func (pidfile) Lock()   {}
func (pidfile) Unlock() {}
func f(p pidfile) { p.Lock() }
`,
	},
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.analyzer+"/"+fx.name, func(t *testing.T) {
			filename := fx.filename
			if filename == "" {
				filename = "internal/fix/fix.go"
			}
			repo, err := NewRepoFromSource(filename, fx.src)
			if err != nil {
				t.Fatalf("fixture does not parse: %v", err)
			}
			a := ByName(fx.analyzer)
			if a == nil {
				t.Fatalf("unknown analyzer %q", fx.analyzer)
			}
			findings := repo.Run([]*Analyzer{a})
			if fx.wantSub == "" {
				if len(findings) != 0 {
					t.Fatalf("clean fixture produced findings:\n%v", findings)
				}
				return
			}
			if len(findings) == 0 {
				t.Fatalf("violation fixture produced no findings")
			}
			for _, f := range findings {
				if f.Analyzer != fx.analyzer {
					t.Fatalf("finding from wrong analyzer %q: %v", f.Analyzer, f)
				}
				if strings.Contains(f.Message, fx.wantSub) {
					return
				}
			}
			t.Fatalf("no finding mentions %q; got:\n%v", fx.wantSub, findings)
		})
	}
}

// TestFixturesCoverEveryAnalyzer guards the table itself: every registered
// analyzer must have at least one positive and one negative fixture.
func TestFixturesCoverEveryAnalyzer(t *testing.T) {
	pos := map[string]bool{}
	neg := map[string]bool{}
	for _, fx := range fixtures {
		if fx.wantSub != "" {
			pos[fx.analyzer] = true
		} else {
			neg[fx.analyzer] = true
		}
	}
	for _, a := range Analyzers() {
		if !pos[a.Name] {
			t.Errorf("analyzer %s has no positive fixture", a.Name)
		}
		if !neg[a.Name] {
			t.Errorf("analyzer %s has no negative fixture", a.Name)
		}
	}
}

// TestFindingString pins the file:line:col output contract edgerepvet and
// ci.sh rely on.
func TestFindingString(t *testing.T) {
	repo, err := NewRepoFromSource("internal/fix/fix.go", `package fix
func save() error { return nil }
func f() { save() }
`)
	if err != nil {
		t.Fatal(err)
	}
	findings := repo.Run([]*Analyzer{ByName("droppederr")})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	got := findings[0].String()
	if !strings.HasPrefix(got, "internal/fix/fix.go:3:12: droppederr: ") {
		t.Fatalf("finding format %q", got)
	}
}
