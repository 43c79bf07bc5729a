// Determinism analyzers: maporder (no unsorted map iteration feeding
// deterministic output) and wallclock (no wall-clock reads in model-time
// packages). Both exist for the same contract — §4 sweeps, traces, and
// journals replay byte-identically — and both are type-aware with syntactic
// fallback, like the rest of the pass.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// --- maporder ---------------------------------------------------------------

// deterministic-output sinks: a call to one of these inside a range-over-map
// body means the map's iteration order leaks into bytes the repo promises
// are reproducible (goldens, JSONL traces, WAL records, report tables).
var fmtPrintNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// mapOrder flags range statements over a map whose body emits to a
// deterministic sink — a trace sink (instrument.EmitTrace / sink.Emit), a
// journal record (Append/AppendUnsynced), a table/stream writer (json Encode), or fmt
// output — with no sort between the iteration and the emission. Go
// randomizes map order per process, so each such loop is a replay diff
// waiting to happen; the fix is the collect-keys → sort → emit pattern
// (which this rule permits naturally: the sink is then outside the range
// body). A sort call inside the body before the sink also passes.
var mapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "range over a map must not feed a trace sink, journal record, or fmt/json output without a sort in between",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			if f.IsTest {
				continue
			}
			fmtName := importName(f.AST, "fmt")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !r.isMapRange(rs, f) {
					return true
				}
				sinkPos, sinkName := r.firstSinkIn(rs.Body, fmtName)
				if !sinkPos.IsValid() {
					return true
				}
				if r.sortBefore(rs.Body, sinkPos) {
					return true
				}
				out = append(out, Finding{Pos: r.Fset.Position(sinkPos), Analyzer: "maporder",
					Message: fmt.Sprintf("%s emits inside a range over a map (line %d); map order is random per process — collect keys, sort, then emit", sinkName, r.pos(rs).Line)})
				return true
			})
		}
		return out
	},
}

// isMapRange reports whether rs iterates a map, by resolved type where
// available, else by finding a map-typed declaration of the ranged
// identifier in the same file.
func (r *Repo) isMapRange(rs *ast.RangeStmt, f *File) bool {
	if t := r.typeOf(rs.X); t != nil {
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}
	id, ok := ast.Unparen(rs.X).(*ast.Ident)
	if !ok {
		return false
	}
	return declaredAsMap(f.AST, id.Name)
}

// declaredAsMap scans file for a syntactic map declaration of name:
// `var name map[...]...`, `name := make(map[...]...)`, or a map composite
// literal assignment.
func declaredAsMap(file *ast.File, name string) bool {
	found := false
	isMapExpr := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.MapType:
			return true
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
				_, isMap := v.Args[0].(*ast.MapType)
				return isMap
			}
		case *ast.CompositeLit:
			_, isMap := v.Type.(*ast.MapType)
			return isMap
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ValueSpec:
			for i, id := range v.Names {
				if id.Name != name {
					continue
				}
				if v.Type != nil && isMapExpr(v.Type) {
					found = true
				}
				if i < len(v.Values) && isMapExpr(v.Values[i]) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != name || i >= len(v.Rhs) {
					continue
				}
				if isMapExpr(v.Rhs[i]) {
					found = true
				}
			}
		case *ast.Field:
			for _, id := range v.Names {
				if id.Name == name && isMapExpr(v.Type) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// firstSinkIn returns the position and display name of the first
// deterministic-output sink call inside body (token.NoPos when none).
func (r *Repo) firstSinkIn(body *ast.BlockStmt, fmtName string) (token.Pos, string) {
	best := token.NoPos
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if best.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s, ok := r.sinkName(call, fmtName); ok {
			best, name = call.Pos(), s
			return false
		}
		return true
	})
	return best, name
}

// sinkName classifies a call as a deterministic-output sink.
func (r *Repo) sinkName(call *ast.CallExpr, fmtName string) (string, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var selName string
	if isSel {
		selName = sel.Sel.Name
	}
	if o := r.callee(call); o != nil {
		p := objPkgPath(o)
		switch {
		case p == "fmt" && fmtPrintNames[o.Name()]:
			return "fmt." + o.Name(), true
		case p == instrumentImportPath && (o.Name() == "EmitTrace" || o.Name() == "Emit"):
			return "trace " + o.Name(), true
		case p == modulePath+"/internal/journal" && (o.Name() == "Append" || o.Name() == "AppendUnsynced"):
			return "journal " + o.Name(), true
		case p == "encoding/json" && o.Name() == "Encode":
			return "json Encode", true
		}
		return "", false
	}
	if !isSel {
		return "", false
	}
	// Syntactic fallback: match the conventional spellings.
	if x, ok := sel.X.(*ast.Ident); ok && fmtName != "" && x.Name == fmtName && fmtPrintNames[selName] {
		return "fmt." + selName, true
	}
	switch selName {
	case "EmitTrace", "Emit":
		return "trace " + selName, true
	case "Append":
		return "journal Append", true
	case "Encode":
		return "json Encode", true
	}
	return "", false
}

// sortBefore reports a sort call inside body at a position before pos —
// the "intervening sort" escape hatch.
func (r *Repo) sortBefore(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return !found
		}
		if o := r.callee(call); o != nil {
			p := objPkgPath(o)
			if (p == "sort" || p == "slices") && strings.HasPrefix(o.Name(), "Sort") {
				found = true
			}
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "sort" || x.Name == "slices") {
				found = true
			}
		}
		return !found
	})
	return found
}

// --- wallclock --------------------------------------------------------------

// deterministicPkgs are the model-time packages: everything they compute is
// a function of config seed + input, replayed byte-identically from the
// journal. A wall-clock read inside them is either a bug (model time should
// come from the seeded clock / AtSec arrivals) or instrumentation, which
// must go through instrument.Mono / instrument.Clock — the one sanctioned
// monotonic source. Mono yields a process-relative time.Duration that can
// only feed timing fields the deterministic sinks drop, so it cannot leak
// an absolute wall-clock reading into replayed output the way time.Now can.
var deterministicPkgs = []string{
	"internal/core",
	"internal/sim",
	"internal/online",
	"internal/journal",
	"experiments",
}

// wallClockNames are the time-package reads and argless timers that bind a
// computation to the host clock.
var wallClockNames = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
}

// wallClock flags calls to time.Now/Since/Until and timer constructors in
// the deterministic packages, outside test files.
var wallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "time.Now/Since/timers are forbidden in deterministic packages (core, sim, online, journal, experiments); use the seeded model clock",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			if f.IsTest || !inDeterministicPkg(f.Pkg) {
				continue
			}
			timeName := importName(f.AST, "time")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch r.calleeIn(call, "time", "Now", "Since", "Until", "After", "Tick", "NewTicker", "NewTimer") {
				case match:
					name = r.callee(call).Name()
				case miss:
					return true
				case unresolved:
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !wallClockNames[sel.Sel.Name] {
						return true
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok || timeName == "" || x.Name != timeName {
						return true
					}
					name = sel.Sel.Name
				}
				out = append(out, Finding{Pos: r.pos(call), Analyzer: "wallclock",
					Message: fmt.Sprintf("time.%s in deterministic package %s; model time comes from the seeded clock — time instrumentation through instrument.Mono (the sanctioned monotonic source)", name, f.Pkg)})
				return true
			})
		}
		return out
	},
}

func inDeterministicPkg(pkg string) bool {
	for _, p := range deterministicPkgs {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}
