package lint

import (
	"go/token"
	"os"
	"path/filepath"
)

// NewRepoFromSource builds a single-file Repo from an in-memory snippet —
// the entry point the analyzer fixture tests use so regressions are caught
// without walking the real tree. Repo-internal imports resolve against the
// enclosing module on disk (found from the working directory), so typed
// fixtures can reference real packages like edgerep/internal/graph.
func NewRepoFromSource(filename, src string) (*Repo, error) {
	return NewRepoFromSources(map[string]string{filename: src})
}

// NewRepoFromSources is NewRepoFromSource for several files, keyed by
// repo-relative path; files of one directory type-check as one package.
func NewRepoFromSources(files map[string]string) (*Repo, error) {
	r := &Repo{Fset: token.NewFileSet()}
	if wd, err := os.Getwd(); err == nil {
		if base := moduleRoot(wd); base != wd || fileExists(filepath.Join(base, "go.mod")) {
			r.diskRoot = base
		}
	}
	for name, src := range files {
		if err := r.addFile(name, src); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
