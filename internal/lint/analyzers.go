package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// graphPkg is the one directory allowed to compare raw float distances: it
// owns the Dijkstra implementation, the DistanceCache, and the Infinity
// sentinel, and its tests assert cache coherence against fresh runs.
const graphPkg = "internal/graph"

// instrumentImportPath declares the metric constructors and the trace
// vocabulary.
const instrumentImportPath = modulePath + "/internal/instrument"

// --- seededrand -------------------------------------------------------------

// seededRand enforces the determinism contract (CHANGES.md PR 1: every RNG
// seeded from config, goldens bit-identical): every rand.New / rand.NewSource
// argument must trace to a config Seed field, a seed-named variable, or an
// integer literal — never time.Now() or another opaque call. Constructor
// calls resolve to the actual math/rand (or math/rand/v2) package where type
// info exists; otherwise the import spelling decides.
var seededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "rand.New/rand.NewSource must be seeded from a config Seed field or literal, never wall-clock time",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			randName := importName(f.AST, "math/rand")
			if randName == "" {
				randName = importName(f.AST, "math/rand/v2")
			}
			if randName == "" {
				continue
			}
			timeName := importName(f.AST, "time")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := randCtorName(r, call, randName)
				if !ok {
					return true
				}
				switch name {
				case "NewSource", "NewPCG", "NewChaCha8":
					for _, arg := range call.Args {
						if usesWallClock(r, arg, timeName) {
							out = append(out, Finding{Pos: r.pos(arg), Analyzer: "seededrand",
								Message: "RNG seeded from time.Now(); seed from a config Seed field so runs stay bit-identical"})
						} else if !isSeedExpr(arg) {
							out = append(out, Finding{Pos: r.pos(arg), Analyzer: "seededrand",
								Message: fmt.Sprintf("RNG seed %q does not trace to a Seed field or literal", exprString(arg))})
						}
					}
				case "New":
					// The source argument is fine when it is a variable (its
					// creation site is checked where it was made) or a nested
					// rand.NewSource call (visited by this same walk). Any
					// other call hides the seed's provenance.
					for _, arg := range call.Args {
						inner, isCall := arg.(*ast.CallExpr)
						if !isCall {
							continue
						}
						if _, isCtor := randCtorName(r, inner, randName); isCtor {
							continue // rand.New(rand.NewSource(...)): inner call checked above
						}
						out = append(out, Finding{Pos: r.pos(arg), Analyzer: "seededrand",
							Message: fmt.Sprintf("rand.New source %q hides its seed; construct the source from a config Seed field", exprString(arg))})
					}
				}
				return true
			})
		}
		return out
	},
}

// randCtorName reports whether call invokes a math/rand constructor and with
// which name, preferring resolved package identity over import spelling.
func randCtorName(r *Repo, call *ast.CallExpr, randName string) (string, bool) {
	if o := r.callee(call); o != nil {
		p := objPkgPath(o)
		if p != "math/rand" && p != "math/rand/v2" {
			return "", false
		}
		switch o.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8":
			return o.Name(), true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || x.Name != randName {
		return "", false
	}
	switch sel.Sel.Name {
	case "New", "NewSource", "NewPCG", "NewChaCha8":
		return sel.Sel.Name, true
	}
	return "", false
}

// isSeedExpr reports whether e visibly traces to a seed: an integer literal,
// an identifier or selector whose name contains "seed" (case-insensitive),
// or integer arithmetic / conversions over such expressions.
func isSeedExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Kind == token.INT || v.Kind == token.FLOAT || v.Kind == token.CHAR
	case *ast.Ident:
		return strings.Contains(strings.ToLower(v.Name), "seed")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(v.Sel.Name), "seed")
	case *ast.ParenExpr:
		return isSeedExpr(v.X)
	case *ast.UnaryExpr:
		return isSeedExpr(v.X)
	case *ast.BinaryExpr:
		// Mixing a seed with an offset (seed + int64(i)) is still seed-derived;
		// wall-clock use anywhere in the expression is caught by usesWallClock
		// before this heuristic runs.
		return isSeedExpr(v.X) || isSeedExpr(v.Y)
	case *ast.IndexExpr:
		return isSeedExpr(v.X)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && len(v.Args) == 1 && isIntegerConversion(id.Name) {
			return isSeedExpr(v.Args[0])
		}
		if s, ok := v.Fun.(*ast.SelectorExpr); ok {
			return strings.Contains(strings.ToLower(s.Sel.Name), "seed")
		}
		return false
	}
	return false
}

func isIntegerConversion(name string) bool {
	switch name {
	case "int", "int8", "int16", "int32", "int64",
		"uint", "uint8", "uint16", "uint32", "uint64", "uintptr":
		return true
	}
	return false
}

// usesWallClock reports whether e contains a call to time.Now, by resolved
// identity where available, by import spelling otherwise.
func usesWallClock(r *Repo, e ast.Expr, timeName string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch r.calleeIn(call, "time", "Now") {
		case match:
			found = true
		case unresolved:
			if timeName == "" {
				return !found
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// --- infsentinel ------------------------------------------------------------

// infSentinel protects the disconnected-pair contract: distances between
// unreachable nodes are the documented graph.Infinity (math.Inf(1)) sentinel,
// so comparisons against ad-hoc huge constants or exact float equality on
// distance values silently misclassify disconnected pairs.
var infSentinel = &Analyzer{
	Name: "infsentinel",
	Doc:  "distance comparisons must use graph.Infinity/math.IsInf, not magic constants or float equality",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			// internal/graph owns the sentinel and asserts exact cache
			// coherence; internal/lint defines the magnitude threshold.
			if f.Pkg == graphPkg || f.Pkg == "internal/lint" {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || !isComparisonOp(be.Op) {
					return true
				}
				if isHugeLiteral(be.X) || isHugeLiteral(be.Y) {
					out = append(out, Finding{Pos: r.pos(be), Analyzer: "infsentinel",
						Message: "comparison against a magic huge constant; disconnected pairs are graph.Infinity — compare with math.IsInf or graph.Infinity"})
					return true
				}
				if (be.Op == token.EQL || be.Op == token.NEQ) &&
					(isDistanceExpr(r, be.X) || isDistanceExpr(r, be.Y)) &&
					!isInfinityRef(be.X) && !isInfinityRef(be.Y) {
					out = append(out, Finding{Pos: r.pos(be), Analyzer: "infsentinel",
						Message: "exact ==/!= on a float64 distance; compare against graph.Infinity, use math.IsInf, or an epsilon"})
				}
				return true
			})
		}
		return out
	},
}

func isComparisonOp(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// isHugeLiteral matches numeric literals with magnitude ≥ 1e12 — the
// "1e18 means unreachable" smell.
func isHugeLiteral(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
			continue
		case *ast.UnaryExpr:
			e = v.X
			continue
		case *ast.BasicLit:
			if v.Kind != token.INT && v.Kind != token.FLOAT {
				return false
			}
			val, err := strconv.ParseFloat(strings.ReplaceAll(v.Value, "_", ""), 64)
			return err == nil && (val >= 1e12 || val <= -1e12)
		default:
			return false
		}
	}
}

// distanceMethodNames are the repo's calls that return one distance, and
// distanceRowNames those that return a row of distances indexed by node
// (DistanceCache.To/From, the topology's and the cluster's DelayTo/DelayFrom),
// so an element of their result is one. Typed resolution additionally
// requires the method to be declared in this repo (graph, topology, or
// cluster own them all).
var (
	distanceMethodNames = map[string]bool{"Between": true}
	distanceRowNames    = map[string]bool{"To": true, "From": true, "DelayTo": true, "DelayFrom": true}
)

// isDistanceExpr recognizes the repo's distance-producing expressions: the
// DistanceMatrix lookup, an element of a delay row read straight off its
// accessor, and ShortestPaths.Dist indexing.
func isDistanceExpr(r *Repo, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return isDistanceExpr(r, v.X)
	case *ast.CallExpr:
		return isRepoCallNamed(r, v, distanceMethodNames)
	case *ast.IndexExpr:
		if sel, ok := v.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Dist" {
			return true
		}
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
			return isRepoCallNamed(r, call, distanceRowNames)
		}
	}
	return false
}

// isRepoCallNamed reports whether call is a method call with one of names. A
// resolved call counts only when it is declared in this repository;
// unresolved calls fall back to the name alone.
func isRepoCallNamed(r *Repo, call *ast.CallExpr, names map[string]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !names[sel.Sel.Name] {
		return false
	}
	if o := r.callee(call); o != nil {
		return repoOwned(o)
	}
	return true
}

func isInfinityRef(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name == "Infinity"
	case *ast.SelectorExpr:
		return v.Sel.Name == "Infinity"
	}
	return false
}

// --- droppederr -------------------------------------------------------------

// stdlibErrNames are stdlib encoder/writer methods whose error return the
// repo must never drop on the floor; repo-declared functions are covered by
// resolved signatures (or Repo.ErrorReturning in syntactic fallback).
var stdlibErrNames = map[string]bool{
	"Encode": true,
	"Decode": true,
	"Flush":  true,
}

// fileSyncCloseNames are file-handle methods ((*os.File).Sync/Close and the
// repo's journal types) whose dropped error silently breaks crash
// consistency: an unchecked Sync means the WAL record may not be on disk
// when the caller reports it durable. With type info the callee's real
// signature decides; in syntactic fallback these names are flagged only
// when no repo declaration of the name is error-free
// (Repo.DeclaredWithoutError) — otherwise the bare call might target that
// error-less method.
var fileSyncCloseNames = map[string]bool{
	"Sync":  true,
	"Close": true,
}

// droppedErr flags bare call statements that provably discard an error.
// With type info: any repo-declared function or method whose last result is
// error, plus the stdlib encoder/file-handle names above when their resolved
// signature carries an error. Without: the callee name must be declared in
// this repo with error as its last result in every declaration, or be a
// known stdlib name. Deferred calls and explicit `_ =` discards are
// intentional and exempt.
var droppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "bare call statements must not discard error returns from repo or encoding/io functions",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				default:
					return true
				}
				if o := r.callee(call); o != nil {
					fn, ok := o.(*types.Func)
					if !ok {
						return true // conversion or builtin, never an error source
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok {
						return true
					}
					res := sig.Results()
					if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
						return true // provably error-free
					}
					if repoOwned(fn) || stdlibErrNames[name] || fileSyncCloseNames[name] {
						out = append(out, Finding{Pos: r.pos(stmt), Analyzer: "droppederr",
							Message: fmt.Sprintf("result of %s is discarded but carries an error; handle it (or assign to _ to discard explicitly)", name)})
					}
					return true
				}
				if r.ErrorReturning(name) || stdlibErrNames[name] ||
					(fileSyncCloseNames[name] && !r.DeclaredWithoutError(name)) {
					out = append(out, Finding{Pos: r.pos(stmt), Analyzer: "droppederr",
						Message: fmt.Sprintf("result of %s is discarded but carries an error; handle it (or assign to _ to discard explicitly)", name)})
				}
				return true
			})
		}
		return out
	},
}

// --- instrreg ---------------------------------------------------------------

// instrReg enforces the instrument package's registration contract
// (internal/instrument doc): counters, timers, histograms, and gauges are
// process-global, created in package-level var blocks with a static
// string-literal name, and each name is registered exactly once.
// In-function creation would pay the registry mutex on hot paths;
// duplicate names silently merge metrics.
var instrReg = &Analyzer{
	Name: "instrreg",
	Doc:  "instrument counters/timers/histograms/gauges must be package-level vars with unique string-literal names",
	Run: func(r *Repo) []Finding {
		var out []Finding
		firstSeen := make(map[string]string) // metric name → position of first registration
		for _, f := range r.Files {
			if f.IsTest || f.Pkg == "internal/instrument" {
				continue
			}
			instrName := importName(f.AST, instrumentImportPath)
			if instrName == "" {
				continue
			}
			isMetricCall := func(n ast.Node) (*ast.CallExpr, bool) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return nil, false
				}
				switch r.calleeIn(call, instrumentImportPath, "NewCounter", "NewTimer", "NewHistogram", "NewGauge") {
				case match:
					return call, true
				case miss:
					return nil, false
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return nil, false
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || x.Name != instrName {
					return nil, false
				}
				switch sel.Sel.Name {
				case "NewCounter", "NewTimer", "NewHistogram", "NewGauge":
					return call, true
				}
				return nil, false
			}
			for _, decl := range f.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					ast.Inspect(d, func(n ast.Node) bool {
						if call, ok := isMetricCall(n); ok {
							out = append(out, Finding{Pos: r.pos(call), Analyzer: "instrreg",
								Message: "instrument metric created inside a function; declare it in a package-level var block so it registers exactly once"})
						}
						return true
					})
				case *ast.GenDecl:
					ast.Inspect(d, func(n ast.Node) bool {
						call, ok := isMetricCall(n)
						if !ok {
							return true
						}
						// NewHistogram is variadic (name, bounds...); the name is
						// always the first argument.
						if len(call.Args) < 1 {
							return true
						}
						lit, ok := call.Args[0].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							out = append(out, Finding{Pos: r.pos(call.Args[0]), Analyzer: "instrreg",
								Message: "instrument metric name must be a string literal so the registry stays statically auditable"})
							return true
						}
						name, err := strconv.Unquote(lit.Value)
						if err != nil {
							return true
						}
						if prev, dup := firstSeen[name]; dup {
							out = append(out, Finding{Pos: r.pos(call), Analyzer: "instrreg",
								Message: fmt.Sprintf("instrument metric %q already registered at %s; metrics register exactly once", name, prev)})
						} else {
							firstSeen[name] = r.pos(call).String()
						}
						return true
					})
				}
			}
		}
		return out
	},
}

// --- tracereason ------------------------------------------------------------

// reasonVocabulary maps every reason string in the trace vocabulary to the
// instrument constant that declares it. The analyzer uses it to name the
// exact constant a flagged literal should have been — including the PR-4
// robustness reasons (node-crashed, retry-exhausted, repaired), which are the
// ones most tempting to spell out by hand in failover code.
var reasonVocabulary = map[string]string{
	"deadline-violated":   "instrument.ReasonDeadline",
	"capacity-exhausted":  "instrument.ReasonCapacity",
	"k-bound":             "instrument.ReasonKBound",
	"disconnected":        "instrument.ReasonDisconnected",
	"bundle-infeasible":   "instrument.ReasonBundleInfeasible",
	"node-crashed":        "instrument.ReasonNodeCrashed",
	"retry-exhausted":     "instrument.ReasonRetryExhausted",
	"repaired":            "instrument.ReasonRepaired",
	"leader-failover":     "instrument.ReasonLeaderFailover",
	"replication-stalled": "instrument.ReasonReplicationStalled",
}

// reasonHint appends the vocabulary lookup to a tracereason message: a
// literal that spells an existing reason gets pointed at its constant; an
// unknown literal is a vocabulary fork.
func reasonHint(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	if c, known := reasonVocabulary[s]; known {
		return fmt.Sprintf("; this spells %s — use the constant", c)
	}
	return "; this string is not in the trace vocabulary at all"
}

// isReasonTyped reports whether e resolved to the instrument.Reason named
// type. ok is false when no type info is available for e.
func isReasonTyped(r *Repo, e ast.Expr) (isReason, ok bool) {
	t := r.typeOf(e)
	if t == nil {
		return false, false
	}
	pkg, name, named := namedPathName(t)
	return named && pkg == instrumentImportPath && name == "Reason", true
}

// reasonContext reports whether a name-matched "Reason" site is really the
// trace vocabulary: true unless type info positively says otherwise.
func reasonContext(r *Repo, e ast.Expr) bool {
	isReason, ok := isReasonTyped(r, e)
	return !ok || isReason
}

// traceReason protects the trace vocabulary: rejection reasons are the typed
// instrument.Reason* constants (internal/instrument trace doc), so traces
// from different algorithms and PRs stay machine-comparable and
// invariant.CheckTrace can match recorded reasons against recomputed ones.
// A free string — a Reason field set to a literal, a Reason("...")
// conversion, an assignment of a literal to a .Reason field, or a ==/!=
// comparison of a .Reason field against a literal — forks the vocabulary
// silently. Where type info exists, the flagged expression must really be
// instrument.Reason-typed, so an unrelated string field that happens to be
// called Reason is left alone. internal/instrument (which declares the
// constants) and test files (which forge reasons on purpose) are exempt.
var traceReason = &Analyzer{
	Name: "tracereason",
	Doc:  "trace rejection reasons must be instrument.Reason* constants, never free string literals",
	Run: func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			if f.IsTest || f.Pkg == "internal/instrument" {
				continue
			}
			instrName := importName(f.AST, instrumentImportPath)
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.KeyValueExpr:
					// TraceEvent{Reason: "..."} (or any Reason field literal).
					if key, ok := v.Key.(*ast.Ident); ok && key.Name == "Reason" && isStringLit(v.Value) &&
						reasonContext(r, v.Value) {
						out = append(out, Finding{Pos: r.pos(v.Value), Analyzer: "tracereason",
							Message: "rejection Reason set from a free string literal; use the instrument.Reason* constants" + reasonHint(v.Value)})
					}
				case *ast.AssignStmt:
					// ev.Reason = "..."
					for i, lhs := range v.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Reason" || i >= len(v.Rhs) {
							continue
						}
						if isStringLit(v.Rhs[i]) && reasonContext(r, lhs) {
							out = append(out, Finding{Pos: r.pos(v.Rhs[i]), Analyzer: "tracereason",
								Message: "rejection Reason assigned a free string literal; use the instrument.Reason* constants" + reasonHint(v.Rhs[i])})
						}
					}
				case *ast.BinaryExpr:
					// ev.Reason == "..." (dispatch on a spelled-out reason).
					// Comparing against "" is the "no reason recorded" check
					// and stays legal — the empty string is not a reason.
					if v.Op != token.EQL && v.Op != token.NEQ {
						return true
					}
					for _, pair := range [2][2]ast.Expr{{v.X, v.Y}, {v.Y, v.X}} {
						sel, ok := pair[0].(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Reason" || !isStringLit(pair[1]) || isEmptyStringLit(pair[1]) {
							continue
						}
						if !reasonContext(r, pair[0]) {
							continue
						}
						out = append(out, Finding{Pos: r.pos(pair[1]), Analyzer: "tracereason",
							Message: "rejection Reason compared against a free string literal; use the instrument.Reason* constants" + reasonHint(pair[1])})
					}
				case *ast.CallExpr:
					// instrument.Reason("...") conversion.
					sel, ok := v.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Reason" {
						return true
					}
					if o := r.obj(sel.Sel); o != nil {
						if _, isType := o.(*types.TypeName); !isType || objPkgPath(o) != instrumentImportPath {
							return true
						}
					} else if x, ok := sel.X.(*ast.Ident); !ok || instrName == "" || x.Name != instrName {
						return true
					}
					if len(v.Args) == 1 && isStringLit(v.Args[0]) {
						out = append(out, Finding{Pos: r.pos(v), Analyzer: "tracereason",
							Message: "instrument.Reason conversion of a free string literal; use the instrument.Reason* constants" + reasonHint(v.Args[0])})
					}
				}
				return true
			})
		}
		return out
	},
}

func isStringLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

func isEmptyStringLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING && (lit.Value == `""` || lit.Value == "``")
}

// exprString renders a short source-ish form of e for messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Value
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(…)"
	case *ast.BinaryExpr:
		return exprString(v.X) + " " + v.Op.String() + " " + exprString(v.Y)
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[…]"
	}
	return "expression"
}

// --- pkgdoc -----------------------------------------------------------------

// pkgDoc enforces the documentation floor the operator-facing docs link
// into: every package carries a package comment. Library packages need the
// canonical godoc form ("// Package <name> ..."), so `go doc` renders a
// summary; main packages need a doc comment describing the command (any
// leading sentence — the repo's convention is "// Command <name> ...").
// Only one non-test file per package has to carry it.
var pkgDoc = &Analyzer{
	Name: "pkgdoc",
	Doc:  "every package must have a package doc comment (library packages in the canonical 'Package <name> ...' form)",
	Run: func(r *Repo) []Finding {
		type pkgFiles struct {
			name  string // package clause identifier
			first *File  // lexicographically first non-test file (Repo files are sorted)
			ok    bool
		}
		pkgs := make(map[string]*pkgFiles)
		var order []string
		for _, f := range r.Files {
			if f.IsTest {
				continue
			}
			pf := pkgs[f.Pkg]
			if pf == nil {
				pf = &pkgFiles{name: f.AST.Name.Name, first: f}
				pkgs[f.Pkg] = pf
				order = append(order, f.Pkg)
			}
			if f.AST.Doc == nil {
				continue
			}
			text := f.AST.Doc.Text()
			if pf.name == "main" {
				if strings.TrimSpace(text) != "" {
					pf.ok = true
				}
				continue
			}
			if strings.HasPrefix(text, "Package "+pf.name+" ") ||
				strings.HasPrefix(text, "Package "+pf.name+"\n") {
				pf.ok = true
			}
		}
		var out []Finding
		for _, dir := range order {
			pf := pkgs[dir]
			if pf.ok {
				continue
			}
			msg := fmt.Sprintf("package %s has no canonical package comment; give one file a '// Package %s ...' doc comment",
				pf.name, pf.name)
			if pf.name == "main" {
				msg = "main package has no doc comment; describe the command above the package clause"
			}
			out = append(out, Finding{Pos: r.pos(pf.first.AST.Name), Analyzer: "pkgdoc", Message: msg})
		}
		return out
	},
}
