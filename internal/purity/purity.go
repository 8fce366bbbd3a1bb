// Package purity is the one scanner behind the serving stack's purity
// rule: a package built strictly on the MP public surface has no `go`
// statements, channel types, send/receive arrows or `select` in its
// non-test sources, and imports none of the packages that would smuggle
// them in.  It tokenizes rather than greps; each such package's
// purity_test.go declares its Rule and runs the three checks.
package purity

import (
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Rule is one package's purity rule.
type Rule struct {
	Dir      string            // the package directory ("." from its own tests)
	Subject  string            // what must hold, for failure messages
	Required []string          // files the scan must cover
	Banned   map[string]string // banned import path → why
}

// sources lists the paths of the directory's non-test Go files.
func (r Rule) sources(t *testing.T) (files []string) {
	all, _ := filepath.Glob(filepath.Join(r.Dir, "*.go")) // errs only on a bad pattern
	for _, f := range all {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatal("no sources found")
	}
	return files
}

// Tokens fails t on every Go concurrency token in the sources.
func (r Rule) Tokens(t *testing.T) {
	forbidden := map[token.Token]string{token.GO: "go statement", token.CHAN: "chan type",
		token.ARROW: "channel send/receive", token.SELECT: "select statement"}
	for _, file := range r.sources(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(file, fset.Base(), len(src)), src, nil, 0)
		for pos, tok, _ := s.Scan(); tok != token.EOF; pos, tok, _ = s.Scan() {
			if why, bad := forbidden[tok]; bad {
				t.Errorf("%s: %s — %s", fset.Position(pos), why, r.Subject)
			}
		}
	}
}

// Covers fails t on every required file missing from the scan, which is
// by directory listing: a rename or split cannot silently drop a file
// from the rule.
func (r Rule) Covers(t *testing.T) {
	have := map[string]bool{}
	for _, f := range r.sources(t) {
		have[filepath.Base(f)] = true
	}
	for _, want := range r.Required {
		if !have[want] {
			t.Errorf("purity scan does not cover %s — file missing or renamed", want)
		}
	}
}

// Imports fails t on every banned import in the sources.
func (r Rule) Imports(t *testing.T) {
	for _, file := range r.sources(t) {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, bad := r.Banned[path]; bad {
				t.Errorf("%s imports %s: %s", filepath.Base(file), path, why)
			}
		}
	}
}
