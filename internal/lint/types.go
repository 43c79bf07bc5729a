// Type resolution for the lint pass. The Repo is resolved once with stdlib
// go/types: every non-test file's package is checked, with stdlib imports
// served by the go/importer source importer (memoized process-wide, since
// type-checking fmt or net/http from source is the expensive part) and
// repo-internal imports served from the Repo's own parsed files — or, when
// the Repo holds only a subtree or an in-memory fixture, parsed on demand
// from the module on disk. No external modules are involved.
//
// Resolution is best-effort by design: type errors are collected, never
// fatal, and the Info maps stay partially populated. Analyzers ask through
// the helpers below (obj, typeOf, calleeIn) and fall back to the original
// syntactic heuristics when a node did not resolve — so test files (not
// type-checked) and deliberately broken fixtures still get the conservative
// name-based treatment.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// modulePath is the import-path prefix of this repository's own packages.
const modulePath = "edgerep"

// std is the process-wide stdlib importer: one fileset, one source importer,
// reused across every Repo so the stdlib is type-checked at most once per
// process (fixture tests build dozens of Repos). Objects imported from it
// carry positions in std.fset, which the analyzers never render.
var std struct {
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.ImporterFrom
}

func stdImport(path string) (*types.Package, error) {
	std.mu.Lock()
	defer std.mu.Unlock()
	if std.imp == nil {
		std.fset = token.NewFileSet()
		std.imp = importer.ForCompiler(std.fset, "source", nil).(types.ImporterFrom)
	}
	return std.imp.Import(path)
}

// typecheckMu serializes whole-Repo resolution: the shared stdlib importer
// is not safe for concurrent use, and lint passes are not latency-critical.
var typecheckMu sync.Mutex

// typecheck resolves every non-test file in the Repo. Call once from finish.
func (r *Repo) typecheck() {
	typecheckMu.Lock()
	defer typecheckMu.Unlock()

	r.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	r.pkgs = make(map[string]*types.Package)

	// Group the Repo's own non-test files by import path.
	groups := make(map[string][]*ast.File)
	for _, f := range r.Files {
		if f.IsTest {
			continue
		}
		groups[importPathFor(f.Pkg)] = append(groups[importPathFor(f.Pkg)], f.AST)
	}

	var check func(ip string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
			return check(path)
		}
		return stdImport(path)
	})
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if len(r.TypeErrors) < 32 {
				r.TypeErrors = append(r.TypeErrors, err.Error())
			}
			r.typeErrCount++
		},
	}
	check = func(ip string) (*types.Package, error) {
		if p, done := r.pkgs[ip]; done {
			if p == nil {
				return nil, fmt.Errorf("lint: package %s did not resolve", ip)
			}
			return p, nil
		}
		r.pkgs[ip] = nil // cycle guard; overwritten below
		files := groups[ip]
		if files == nil {
			var err error
			files, err = r.parseFromDisk(ip)
			if err != nil {
				return nil, err
			}
		}
		// Check never fails hard: conf.Error collects and the checker
		// continues, so p is non-nil whenever the files parsed.
		p, _ := conf.Check(ip, r.Fset, files, r.Info)
		r.pkgs[ip] = p
		return p, nil
	}
	paths := make([]string, 0, len(groups))
	for ip := range groups {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := check(ip); err != nil {
			conf.Error(err)
		}
	}
}

// importPathFor maps a repo-relative package directory to its import path.
func importPathFor(pkgDir string) string {
	if pkgDir == "." || pkgDir == "" {
		return modulePath
	}
	return modulePath + "/" + pkgDir
}

// parseFromDisk loads a repo-internal package the Repo does not hold itself:
// a dependency of a subtree Load, or an import of an in-memory fixture. The
// files are parsed into the Repo's fileset but are not analyzed (they never
// join r.Files).
func (r *Repo) parseFromDisk(ip string) ([]*ast.File, error) {
	if r.diskRoot == "" {
		return nil, fmt.Errorf("lint: no module root to resolve %s from", ip)
	}
	dir := filepath.Join(r.diskRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(ip, modulePath), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolve %s: %w", ip, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(r.Fset, filepath.Join(dir, name), src, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files for %s in %s", ip, dir)
	}
	return files, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// --- analyzer-facing resolution helpers -------------------------------------

// obj resolves an identifier to its object (use or definition), or nil when
// the identifier was not type-checked (test files, broken fixtures).
func (r *Repo) obj(id *ast.Ident) types.Object {
	if r.Info == nil {
		return nil
	}
	if o := r.Info.Uses[id]; o != nil {
		return o
	}
	return r.Info.Defs[id]
}

// callee resolves the function or method object a call invokes, or nil.
func (r *Repo) callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return r.obj(fun)
	case *ast.SelectorExpr:
		return r.obj(fun.Sel)
	}
	return nil
}

// typeOf returns the resolved type of an expression, or nil.
func (r *Repo) typeOf(e ast.Expr) types.Type {
	if r.Info == nil {
		return nil
	}
	if tv, ok := r.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if o := r.obj(id); o != nil {
			return o.Type()
		}
	}
	return nil
}

// objPkgPath returns the import path of the package declaring o ("" for nil
// objects and universe-scope builtins).
func objPkgPath(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	return o.Pkg().Path()
}

// repoOwned reports whether o is declared in this repository.
func repoOwned(o types.Object) bool {
	p := objPkgPath(o)
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// calleeIn reports how a call resolves against a package path and name set:
// match (resolved to pkgPath with a listed name), miss (resolved elsewhere —
// the typed negative), or unresolved (no type info; callers fall back to the
// syntactic heuristic).
type resolution int

const (
	unresolved resolution = iota
	match
	miss
)

func (r *Repo) calleeIn(call *ast.CallExpr, pkgPath string, names ...string) resolution {
	o := r.callee(call)
	if o == nil {
		return unresolved
	}
	if objPkgPath(o) != pkgPath {
		return miss
	}
	for _, n := range names {
		if o.Name() == n {
			return match
		}
	}
	return miss
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// namedPathName splits a (possibly pointer-wrapped) named type into its
// declaring package path and type name; ok is false for unnamed types.
func namedPathName(t types.Type) (pkg, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := n.Obj()
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg, obj.Name(), true
}
