// Package lint is the repository's static-analysis pass: a stdlib-only
// analyzer framework (go/parser + go/ast + go/types, no external modules)
// with repo-specific analyzers that machine-check the conventions the paper
// reproduction depends on — seeded randomness (determinism contract), the
// graph.Infinity sentinel for disconnected pairs, no silently dropped
// errors, package-level instrument metric registration, and the
// determinism/concurrency contracts: no unsorted map iteration feeding
// deterministic output (maporder), no wall-clock reads in model-time
// packages (wallclock), commit-before-ack in internal/server (ackorder),
// joined/bounded goroutines (goroexit), unlock on every path
// (lockdiscipline), and term fencing before admission intake in the
// federation handlers (termfence). Mutex copies are go vet's copylocks
// check, and raw shortest-path runs outside internal/graph are a compile
// error (the kernel is unexported).
//
// The pass is type-aware: Load resolves the whole repository once with
// go/types (see types.go), so analyzers match package identity — the actual
// edgerep/internal/instrument constructors, the actual time.Now — rather than
// identifier spelling, and fall back to the conservative name heuristics
// only where resolution is unavailable (test files, broken fixtures).
//
// Individual findings can be suppressed with a directive on the offending
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory and an unused suppression is itself a finding, so
// the set of waived call sites stays auditable and can never rot silently.
//
// The pass runs three ways: as the cmd/edgerepvet CLI, as the in-repo gate
// TestLintRepo (so `go test ./...` itself fails on violations), and as a
// step in ci.sh between vet and build. Analyzers operate on a Repo — every
// parsed file plus cross-file indexes and the resolved type info — so rules
// that need whole-repo context stay single-pass.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"edgerep/internal/instrument"
)

// Gate instrumentation: the CI step runs edgerepvet with -stats so the
// snapshot records that the gate ran and what it found.
var (
	statAnalyzers = instrument.NewCounter("lint.analyzers_run")
	statFiles     = instrument.NewCounter("lint.files_scanned")
	statFindings  = instrument.NewCounter("lint.findings")
	statTypeErrs  = instrument.NewCounter("lint.type_errors")
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one repo-specific rule. Run receives the whole Repo so rules
// may correlate across files; findings are reported in any order and sorted
// by the driver.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Repo) []Finding
}

// Timing is one analyzer's share of a Run: how many findings it raised
// (before suppression) and how long it took. edgerepvet -stats and -json
// report these per pass.
type Timing struct {
	Name     string        `json:"name"`
	Findings int           `json:"findings"`
	Elapsed  time.Duration `json:"elapsed_ns"`
}

// directive is one //lint:ignore comment. A directive suppresses findings
// of its analyzer on its own line or the line immediately below; a directive
// with no reason, an unknown analyzer name, or no matching finding is
// reported as a finding itself (analyzer "ignore").
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// ignoreAnalyzer names the pseudo-analyzer that reports directive misuse.
const ignoreAnalyzer = "ignore"

// File is one parsed source file plus the repo-relative metadata the
// analyzers key their scoping decisions on.
type File struct {
	AST *ast.File
	// Path is the slash-separated path relative to the repo root.
	Path string
	// Pkg is the directory of Path ("." for root-level files); analyzers
	// use it to scope rules, e.g. infsentinel exempts "internal/graph".
	Pkg string
	// IsTest reports a _test.go file.
	IsTest bool

	directives []*directive
}

// Repo is the parsed universe one lint pass runs over.
type Repo struct {
	Fset  *token.FileSet
	Files []*File

	// Info holds the merged go/types resolution of every non-test file,
	// populated best-effort by typecheck (types.go). Analyzers access it
	// through obj/callee/typeOf and fall back to syntax when nil entries
	// come back.
	Info *types.Info
	// TypeErrors records the first type-check diagnostics (best-effort
	// resolution never fails the pass; these surface in -stats/-json).
	TypeErrors   []string
	typeErrCount int64

	// Timings records the per-analyzer findings/duration of the most
	// recent Run.
	Timings []Timing

	// diskRoot is the module root used to resolve repo-internal imports of
	// packages the Repo does not hold itself ("" when unknown).
	diskRoot string
	pkgs     map[string]*types.Package

	fileByPath map[string]*File

	// errFuncs maps function/method names declared in the repo to whether
	// every declaration of that name has error as its last result — the
	// conservative condition under which a bare call statement provably
	// discards an error. Used only where type resolution is unavailable.
	errFuncs map[string]bool
	// noErrFuncs maps names to whether SOME repo declaration lacks an error
	// result — the escape hatch droppederr's file-handle rule needs in
	// syntactic fallback: a bare Close()/Sync() is only provably dropping
	// an error when no error-less declaration of that name exists.
	noErrFuncs map[string]bool
}

// Load parses every .go file under root (skipping testdata and dot
// directories) into a Repo ready for Run, then type-checks it. File paths —
// and therefore the package scoping the analyzers key on, e.g. the
// internal/graph exemption — are made relative to the enclosing module root
// (nearest go.mod at or above root), so `edgerepvet ./internal/...` scopes
// identically to `edgerepvet ./...`.
func Load(root string) (*Repo, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base := moduleRoot(absRoot)
	r := &Repo{Fset: token.NewFileSet(), diskRoot: base}
	err = filepath.WalkDir(absRoot, func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			name := d.Name()
			if path != absRoot && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(base, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return r.addFile(filepath.ToSlash(rel), string(src))
	})
	if err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// moduleRoot walks up from dir (absolute) to the nearest directory holding a
// go.mod; when none exists, dir itself anchors the repo-relative paths.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

func (r *Repo) addFile(rel, src string) error {
	f, err := parser.ParseFile(r.Fset, rel, src, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("lint: parse %s: %w", rel, err)
	}
	pkg := filepath.ToSlash(filepath.Dir(rel))
	file := &File{
		AST:    f,
		Path:   rel,
		Pkg:    pkg,
		IsTest: strings.HasSuffix(rel, "_test.go"),
	}
	file.directives = parseDirectives(r.Fset, f)
	r.Files = append(r.Files, file)
	return nil
}

// parseDirectives extracts every //lint:ignore comment of a file.
func parseDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			d := &directive{pos: fset.Position(c.Pos())}
			if len(fields) > 0 {
				d.analyzer = fields[0]
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// finish builds the cross-file indexes, fixes a deterministic file order,
// and resolves types.
func (r *Repo) finish() {
	sort.Slice(r.Files, func(i, j int) bool { return r.Files[i].Path < r.Files[j].Path })
	r.fileByPath = make(map[string]*File, len(r.Files))
	for _, f := range r.Files {
		r.fileByPath[f.Path] = f
	}
	r.errFuncs = make(map[string]bool)
	r.noErrFuncs = make(map[string]bool)
	for _, f := range r.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			returnsErr := false
			if res := fd.Type.Results; res != nil && len(res.List) > 0 {
				last := res.List[len(res.List)-1].Type
				if id, ok := last.(*ast.Ident); ok && id.Name == "error" {
					returnsErr = true
				}
			}
			if prev, seen := r.errFuncs[name]; seen {
				r.errFuncs[name] = prev && returnsErr
			} else {
				r.errFuncs[name] = returnsErr
			}
			if !returnsErr {
				r.noErrFuncs[name] = true
			}
		}
	}
	r.typecheck()
	statTypeErrs.Add(r.typeErrCount)
}

// ErrorReturning reports whether every repo-level declaration named name has
// error as its last result.
func (r *Repo) ErrorReturning(name string) bool { return r.errFuncs[name] }

// DeclaredWithoutError reports whether at least one repo-level declaration
// named name has no error last result, making a bare call of that name
// potentially error-free.
func (r *Repo) DeclaredWithoutError(name string) bool { return r.noErrFuncs[name] }

// pos converts a node position for reporting.
func (r *Repo) pos(n ast.Node) token.Position { return r.Fset.Position(n.Pos()) }

// importName returns the local name under which file f imports path
// ("" when not imported): the declared alias, or the path's base name.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return p[strings.LastIndex(p, "/")+1:]
	}
	return ""
}

// Run executes the given analyzers over the repo, applies the //lint:ignore
// suppressions (reporting directive misuse — missing reason, unknown
// analyzer, unused suppression — as findings of the "ignore"
// pseudo-analyzer), and returns the surviving findings sorted by position
// then analyzer name. Per-analyzer timing lands in r.Timings.
func (r *Repo) Run(analyzers []*Analyzer) []Finding {
	statFiles.Add(int64(len(r.Files)))
	r.Timings = r.Timings[:0]
	ran := make(map[string]bool, len(analyzers))
	var out []Finding
	for _, a := range analyzers {
		statAnalyzers.Inc()
		start := time.Now()
		found := a.Run(r)
		r.Timings = append(r.Timings, Timing{Name: a.Name, Findings: len(found), Elapsed: time.Since(start)})
		ran[a.Name] = true
		out = append(out, found...)
	}
	out = r.applySuppressions(out, ran)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	statFindings.Add(int64(len(out)))
	return out
}

// applySuppressions drops findings covered by a well-formed //lint:ignore
// directive and reports directive misuse. A directive covers findings of
// its analyzer on its own line (trailing comment) or the line immediately
// below (comment on its own line above the statement). ran limits the
// unused-suppression check to analyzers that actually executed, so a
// fixture run of one analyzer does not condemn directives for another.
func (r *Repo) applySuppressions(findings []Finding, ran map[string]bool) []Finding {
	any := false
	for _, f := range r.Files {
		if len(f.directives) > 0 {
			any = true
			for _, d := range f.directives {
				d.used = false // Run may be invoked repeatedly on one Repo
			}
		}
	}
	if !any {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		file := r.fileByPath[f.Pos.Filename]
		suppressed := false
		if file != nil {
			for _, d := range file.directives {
				if d.analyzer != f.Analyzer || d.reason == "" {
					continue
				}
				if d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1 {
					d.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, file := range r.Files {
		for _, d := range file.directives {
			switch {
			case d.analyzer == "" || d.reason == "":
				kept = append(kept, Finding{Pos: d.pos, Analyzer: ignoreAnalyzer,
					Message: "//lint:ignore needs an analyzer name and a reason: //lint:ignore <analyzer> <reason>"})
			case ByName(d.analyzer) == nil:
				kept = append(kept, Finding{Pos: d.pos, Analyzer: ignoreAnalyzer,
					Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q (see edgerepvet -list)", d.analyzer)})
			case ran[d.analyzer] && !d.used:
				kept = append(kept, Finding{Pos: d.pos, Analyzer: ignoreAnalyzer,
					Message: fmt.Sprintf("unused //lint:ignore %s suppression; the violation it waived is gone — delete the directive", d.analyzer)})
			}
		}
	}
	return kept
}

// Analyzers returns every registered analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		seededRand,
		infSentinel,
		droppedErr,
		instrReg,
		traceReason,
		pkgDoc,
		mapOrder,
		wallClock,
		ackOrder,
		goroExit,
		lockDiscipline,
		termFence,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
