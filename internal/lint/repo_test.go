package lint

import (
	"os"
	"strings"
	"testing"
)

// TestLintRepo is the in-repo gate: every analyzer over the whole tree must
// come back clean. A deliberate violation anywhere in the repo fails this
// test (the fixture table in analyzers_test.go demonstrates each analyzer
// firing on such violations in isolation).
func TestLintRepo(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(root + "/go.mod"); err != nil {
		t.Fatalf("repo root not found from package dir: %v", err)
	}
	repo, err := Load(root)
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(repo.Files) == 0 {
		t.Fatal("no Go files loaded")
	}
	if len(repo.TypeErrors) > 0 {
		t.Errorf("repo does not fully type-check; analyzers are running on fallback heuristics:\n%s",
			strings.Join(repo.TypeErrors, "\n"))
	}
	findings := repo.Run(Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d lint finding(s); run `go run ./cmd/edgerepvet ./...` from the repo root", len(findings))
	}
	if len(repo.Timings) != len(Analyzers()) {
		t.Fatalf("Timings has %d entries, want one per analyzer (%d)", len(repo.Timings), len(Analyzers()))
	}
}

// TestAnalyzerInventory pins the registered analyzer set: removing one (or
// renaming it, which silently orphans its //lint:ignore directives) must be
// a conscious change here too.
func TestAnalyzerInventory(t *testing.T) {
	want := []string{
		"seededrand", "infsentinel", "droppederr", "instrreg",
		"tracereason", "pkgdoc",
		"maporder", "wallclock", "ackorder", "goroexit", "lockdiscipline",
		"termfence",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("%d analyzers registered, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
	}
}

// TestRepoTypeResolution guards the go/types step itself: the full tree must
// resolve with zero diagnostics, and identifier uses must land in Info so
// the analyzers' typed paths (package identity, signature checks) are live
// rather than silently falling back to name heuristics.
func TestRepoTypeResolution(t *testing.T) {
	repo, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	if repo.Info == nil {
		t.Fatal("Repo.Info not populated")
	}
	if len(repo.TypeErrors) > 0 {
		t.Fatalf("type errors:\n%s", strings.Join(repo.TypeErrors, "\n"))
	}
	if n := len(repo.Info.Uses); n < 10000 {
		t.Fatalf("only %d resolved uses; whole-repo resolution looks broken", n)
	}
}

// TestLoadScopesPackagesAtModuleRoot guards the subtree-invocation case:
// `edgerepvet ./internal/...` must scope files identically to `./...`, i.e.
// paths stay relative to go.mod, so internal/graph keeps its raw-distance
// exemption (infsentinel) even when it is the walk root.
func TestLoadScopesPackagesAtModuleRoot(t *testing.T) {
	repo, err := Load("../../internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Files) == 0 {
		t.Fatal("no files loaded from internal/graph")
	}
	for _, f := range repo.Files {
		if f.Pkg != "internal/graph" {
			t.Fatalf("file %s scoped to %q, want internal/graph", f.Path, f.Pkg)
		}
	}
	if findings := repo.Run(Analyzers()); len(findings) > 0 {
		t.Fatalf("internal/graph flagged when loaded as the walk root:\n%v", findings)
	}
}
