package serve

// The acceptance test for the subsystem's central claim: the request
// path is built strictly on the MP public surface.  Rather than a
// fragile textual grep, the check tokenizes every non-test source file
// in this package and rejects the Go concurrency keywords outright —
// no `go` statements, no channel types, no receive/send arrows, no
// `select` — plus the imports that would smuggle them in (net/http's
// server forks a goroutine per connection; package sync is the
// platform's to wrap, not ours to call).

import (
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func serveSources(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		t.Fatal("no sources found")
	}
	return files
}

func TestRequestPathUsesOnlyMPPrimitives(t *testing.T) {
	forbidden := map[token.Token]string{
		token.GO:     "go statement",
		token.CHAN:   "chan type",
		token.ARROW:  "channel send/receive",
		token.SELECT: "select statement",
	}
	for _, file := range serveSources(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(file, fset.Base(), len(src)), src, nil, 0)
		for {
			pos, tok, _ := s.Scan()
			if tok == token.EOF {
				break
			}
			if why, bad := forbidden[tok]; bad {
				t.Errorf("%s: %s — the serve request path must use MP primitives only", fset.Position(pos), why)
			}
		}
	}
}

// TestPurityScanCoversLoopFile pins the scan's coverage: it is by
// directory listing, so the file that owns every socket- and
// clock-touching loop must be in that listing — a rename cannot
// silently drop it from the purity rule.
func TestPurityScanCoversLoopFile(t *testing.T) {
	for _, f := range serveSources(t) {
		if f == "loop.go" {
			return
		}
	}
	t.Error("purity scan does not cover loop.go — file missing or renamed")
}

func TestForbiddenImports(t *testing.T) {
	banned := map[string]string{
		"net/http": "spawns goroutines per connection, bypassing the MP scheduler",
		"sync":     "raw Go synchronization; use core locks / syncx",
	}
	for _, file := range serveSources(t) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, bad := banned[path]; bad {
				t.Errorf("%s imports %s: %s", filepath.Base(file), path, why)
			}
		}
	}
}
