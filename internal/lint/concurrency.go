// Concurrency analyzers: ackorder (commit-before-ack in internal/server),
// goroexit (goroutines in the serving packages must be joined or bounded),
// and lockdiscipline (no mutex copies; Lock paired with Unlock on every
// return path). All three approximate dominance with lexical (token.Pos)
// order inside one function scope — function literals are independent
// scopes — which is exact for the straight-line and early-return shapes
// this repo writes and conservative everywhere else; genuine exceptions
// carry //lint:ignore waivers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

const serverPkg = "internal/server"
const serverImportPath = modulePath + "/" + serverPkg

// --- scope plumbing ---------------------------------------------------------

// funcScopes yields every function body in a file as an independent scope:
// each FuncDecl body and each FuncLit body, exactly once.
func funcScopes(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				visit(v.Body)
			}
		case *ast.FuncLit:
			visit(v.Body)
		}
		return true
	})
}

// inspectShallow walks body without descending into nested function
// literals, so per-scope analyses don't absorb a closure's statements.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return fn(n)
	})
}

// --- ackorder ---------------------------------------------------------------

// ackOrder is the exactly-once invariant as a static rule: in
// internal/server, every ack — a send of a server result value to a
// waiter, or a JSON encode of an AdmitResponse onto the HTTP response —
// must be dominated in its function by the durability barrier: the engine
// (or journal) Commit that fsyncs the epoch's records, or the receive of an
// already-committed result. Offer and Append do not count: under group
// commit they only write the record, and acking between the write and the
// commit would tell the client "admitted" before the decision is durable,
// so a power cut in between loses an acknowledged decision.
// Dominance is lexical order within the scope, which the server's
// straight-line handler shapes make exact.
var ackOrder = &Analyzer{
	Name: "ackorder",
	Doc:  "in internal/server, ack writes (result sends, AdmitResponse encodes) must be preceded by the journal commit barrier (Commit) or a committed-result receive on the same path",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			if f.IsTest || (f.Pkg != serverPkg && !hasPrefixDir(f.Pkg, serverPkg)) {
				continue
			}
			funcScopes(f.AST, func(body *ast.BlockStmt) {
				var dominators []token.Pos
				type ack struct {
					pos  token.Pos
					what string
				}
				var acks []ack
				inspectShallow(body, func(n ast.Node) bool {
					switch v := n.(type) {
					case *ast.UnaryExpr:
						if v.Op == token.ARROW {
							dominators = append(dominators, v.Pos())
						}
					case *ast.CallExpr:
						switch calleeName(v) {
						case "Commit", "dispatch":
							// dispatch blocks until every enqueued request's
							// committed result comes back (the receive lives
							// one call deep), so its return dominates like a
							// receive.
							dominators = append(dominators, v.Pos())
						case "Encode":
							if len(v.Args) == 1 && r.isAdmitResponse(v.Args[0]) {
								acks = append(acks, ack{v.Pos(), "AdmitResponse encode"})
							}
						}
					case *ast.SendStmt:
						if r.isResultValue(v.Value) {
							acks = append(acks, ack{v.Pos(), "result send"})
						}
					}
					return true
				})
				for _, a := range acks {
					dominated := false
					for _, d := range dominators {
						if d < a.pos {
							dominated = true
							break
						}
					}
					if !dominated {
						out = append(out, Finding{Pos: r.Fset.Position(a.pos), Analyzer: "ackorder",
							Message: fmt.Sprintf("%s is not preceded by the journal commit barrier (Commit) or a committed-result receive; acking before the decision is durable loses an acknowledged decision on power loss", a.what)})
					}
				}
			})
		}
		return out
	},
}

func hasPrefixDir(pkg, prefix string) bool {
	return len(pkg) > len(prefix) && pkg[:len(prefix)] == prefix && pkg[len(prefix)] == '/'
}

// calleeName extracts the syntactic function name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isResultValue reports whether e is a server result value: resolved to the
// server package's result type, or (untyped) a `result{...}` composite.
func (r *Repo) isResultValue(e ast.Expr) bool {
	if t := r.typeOf(e); t != nil {
		pkg, name, ok := namedPathName(t)
		return ok && pkg == serverImportPath && name == "result"
	}
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	id, ok := cl.Type.(*ast.Ident)
	return ok && id.Name == "result"
}

// isAdmitResponse reports whether e is an AdmitResponse or []AdmitResponse:
// the payloads /admit acks with.
func (r *Repo) isAdmitResponse(e ast.Expr) bool {
	t := r.typeOf(e)
	if t == nil {
		// Untyped fallback: an identifier conventionally named resp/resps.
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return id.Name == "resp" || id.Name == "resps"
		}
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	pkg, name, ok := namedPathName(t)
	return ok && pkg == serverImportPath && name == "AdmitResponse"
}

// --- goroexit ---------------------------------------------------------------

// goroPkgs are the long-running serving packages where a leaked goroutine
// outlives drains and fails the testbed's shutdown determinism.
var goroPkgs = []string{"internal/server", "internal/testbed", "internal/ops", "internal/federation"}

// goroExit requires every `go` statement in the serving packages to show
// join-or-bound evidence in the launched function: a WaitGroup/context
// Done, a close of a signalling channel, a channel send, a receive, or a
// range over a channel. A goroutine with none of those has no way to be
// waited on or cancelled — it leaks past Drain. Launches of functions the
// pass cannot see into (other packages' methods) count as evidence-free
// and need a //lint:ignore goroexit waiver explaining their lifecycle.
var goroExit = &Analyzer{
	Name: "goroexit",
	Doc:  "goroutines in server/testbed/ops must be joined (WaitGroup/channel) or bounded by a context",
	Run: func(r *Repo) []Finding {
		// Index the repo's function declarations per package so `go s.run()`
		// can be traced into run's body.
		decls := make(map[string]map[string][]*ast.FuncDecl)
		for _, f := range r.Files {
			if f.IsTest {
				continue
			}
			m := decls[f.Pkg]
			if m == nil {
				m = make(map[string][]*ast.FuncDecl)
				decls[f.Pkg] = m
			}
			for _, d := range f.AST.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					m[fd.Name.Name] = append(m[fd.Name.Name], fd)
				}
			}
		}
		var out []Finding
		for _, f := range r.Files {
			if f.IsTest || !inGoroPkg(f.Pkg) {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if goroHasExitEvidence(gs.Call, decls[f.Pkg]) {
					return true
				}
				out = append(out, Finding{Pos: r.pos(gs), Analyzer: "goroexit",
					Message: "goroutine has no join or bound (no WaitGroup/ctx Done, channel close/send/receive); it leaks past Drain — give it one or waive with //lint:ignore goroexit <reason>"})
				return true
			})
		}
		return out
	},
}

func inGoroPkg(pkg string) bool {
	for _, p := range goroPkgs {
		if pkg == p || hasPrefixDir(pkg, p) {
			return true
		}
	}
	return false
}

// goroHasExitEvidence inspects the function a go statement launches.
func goroHasExitEvidence(call *ast.CallExpr, pkgDecls map[string][]*ast.FuncDecl) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return bodyHasExitEvidence(fun.Body)
	case *ast.Ident:
		for _, fd := range pkgDecls[fun.Name] {
			if fd.Body != nil && bodyHasExitEvidence(fd.Body) {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		// s.run(): method in the same package (receiver package identity is
		// what matters; a name collision at worst accepts evidence from a
		// sibling method, still this package's code).
		for _, fd := range pkgDecls[fun.Sel.Name] {
			if fd.Body != nil && bodyHasExitEvidence(fd.Body) {
				return true
			}
		}
		return false
	}
	return false
}

// bodyHasExitEvidence looks for any join/bound pattern, including inside
// nested literals (a worker that spawns joined sub-workers is itself
// structured).
func bodyHasExitEvidence(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				// wg.Done / ctx.Done / wg.Wait
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Wait" {
					found = true
				}
			}
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// range over a channel is a close-bounded loop; over other types
			// it is not evidence, but distinguishing needs type info the
			// launched body may not have — accept only explicit channel ops
			// otherwise, so plain slice ranges fall through to them.
		}
		return !found
	})
	return found
}

// --- lockdiscipline ---------------------------------------------------------

// lockDiscipline enforces two mutex rules repo-wide. First, sync.Mutex /
// sync.RWMutex values must not be copied (parameters or assignments copy
// the lock state; the copy guards nothing). Second, within one function
// scope, a mu.Lock() (or RLock) must be released on every path: either a
// deferred matching Unlock exists in the scope, or every return after the
// Lock — and the scope's fall-through end — has a matching Unlock between
// the Lock and it, in lexical order.
var lockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no mutex value copies; every Lock needs a dominating defer Unlock or an Unlock on every return path",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			if f.IsTest {
				continue
			}
			out = append(out, r.mutexCopies(f)...)
			funcScopes(f.AST, func(body *ast.BlockStmt) {
				out = append(out, r.lockPaths(body)...)
			})
		}
		return out
	},
}

// mutexCopies flags by-value mutex parameters and assignments.
func (r *Repo) mutexCopies(f *File) []Finding {
	var out []Finding
	syncName := importName(f.AST, "sync")
	isMutexType := func(e ast.Expr) bool {
		if t := r.typeOf(e); t != nil {
			pkg, name, ok := namedPathName(t)
			// namedPathName unwraps one pointer; a *sync.Mutex expression is
			// not a copy, so require the expression type itself to be named.
			if _, isPtr := t.(*types.Pointer); isPtr {
				return false
			}
			return ok && pkg == "sync" && (name == "Mutex" || name == "RWMutex")
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && syncName != "" && x.Name == syncName && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncType:
			if v.Params == nil {
				return true
			}
			for _, field := range v.Params.List {
				if isMutexType(field.Type) {
					out = append(out, Finding{Pos: r.pos(field.Type), Analyzer: "lockdiscipline",
						Message: "mutex passed by value; the copy guards nothing — pass *sync.Mutex or restructure"})
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				if i >= len(v.Lhs) {
					break
				}
				switch ast.Unparen(rhs).(type) {
				case *ast.CompositeLit, *ast.UnaryExpr, *ast.CallExpr:
					continue // sync.Mutex{} zero init, &mu, constructor results
				}
				if isMutexType(rhs) {
					out = append(out, Finding{Pos: r.pos(rhs), Analyzer: "lockdiscipline",
						Message: "assignment copies a mutex value; the copy's state diverges from the original — use a pointer"})
				}
			}
		}
		return true
	})
	return out
}

// lockEvent is one Lock/Unlock/defer-Unlock/return occurrence in a scope,
// in lexical order.
type lockEvent struct {
	pos  token.Pos
	kind string // "lock", "unlock", "defer", "return"
	recv string // receiver expression spelling, e.g. "s.mu"
	op   string // "Lock" or "RLock" (lock family; unlocks normalized to it)
}

// lockPaths runs the per-scope release check.
func (r *Repo) lockPaths(body *ast.BlockStmt) []Finding {
	var events []lockEvent
	record := func(call *ast.CallExpr, kind string) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		var op string
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if kind != "lock" {
				return false
			}
			op = sel.Sel.Name
		case "Unlock":
			op = "Lock"
		case "RUnlock":
			op = "RLock"
		default:
			return false
		}
		if kind == "lock" && sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return false
		}
		// Typed gate: when the receiver resolves, it must really be a sync
		// mutex — a domain type's Lock() (e.g. a pidfile) is not in scope.
		if t := r.typeOf(sel.X); t != nil {
			pkg, name, ok := namedPathName(t)
			if !ok || pkg != "sync" || (name != "Mutex" && name != "RWMutex") {
				return false
			}
		}
		events = append(events, lockEvent{call.Pos(), kind, exprString(sel.X), op})
		return true
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeferStmt:
			record(v.Call, "defer")
			return false // a deferred closure is its own scope
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				if record(call, "lock") {
					return false
				}
				record(call, "unlock")
			}
		case *ast.ReturnStmt:
			events = append(events, lockEvent{v.Pos(), "return", "", ""})
		}
		return true
	})
	end := body.End()
	var out []Finding
	for _, lk := range events {
		if lk.kind != "lock" {
			continue
		}
		// A deferred matching unlock anywhere in the scope releases on every
		// path, including panics.
		deferred := false
		for _, e := range events {
			if e.kind == "defer" && e.recv == lk.recv && e.op == lk.op {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		unlockBetween := func(lo, hi token.Pos) bool {
			for _, e := range events {
				if e.kind == "unlock" && e.recv == lk.recv && e.op == lk.op && e.pos > lo && e.pos < hi {
					return true
				}
			}
			return false
		}
		bad := token.NoPos
		for _, e := range events {
			if e.kind == "return" && e.pos > lk.pos && !unlockBetween(lk.pos, e.pos) {
				bad = e.pos
				break
			}
		}
		if !bad.IsValid() && !unlockBetween(lk.pos, end) {
			bad = end
		}
		if bad.IsValid() {
			verb := "Unlock"
			if lk.op == "RLock" {
				verb = "RUnlock"
			}
			how := fmt.Sprintf("a path (line %d) returns without releasing it", r.Fset.Position(bad).Line)
			if bad == end {
				how = "the function can end without releasing it"
			}
			out = append(out, Finding{Pos: r.Fset.Position(lk.pos), Analyzer: "lockdiscipline",
				Message: fmt.Sprintf("%s.%s has no defer %s and %s", lk.recv, lk.op, verb, how)})
		}
	}
	return out
}
