package serve

// The acceptance test for the subsystem's central claim: the request
// path is built strictly on the MP public surface.  The purity scanner
// tokenizes every non-test source file in this package and rejects the
// Go concurrency keywords outright — no `go` statements, no channel
// types, no receive/send arrows, no `select` — plus the imports that
// would smuggle them in (net/http's server forks a goroutine per
// connection; package sync is the platform's to wrap, not ours to call).

import (
	"testing"

	"repro/internal/purity"
)

var purityRule = purity.Rule{
	Dir:     ".",
	Subject: "the serve request path must use MP primitives only",
	// The file that owns every socket- and clock-touching loop.
	Required: []string{"loop.go"},
	Banned: map[string]string{
		"net/http": "spawns goroutines per connection, bypassing the MP scheduler",
		"sync":     "raw Go synchronization; use core locks / syncx",
	},
}

func TestRequestPathUsesOnlyMPPrimitives(t *testing.T) { purityRule.Tokens(t) }

// TestPurityScanCoversLoopFile pins the scan's coverage: it is by
// directory listing, so the file that owns every socket- and
// clock-touching loop must be in that listing — a rename cannot
// silently drop it from the purity rule.
func TestPurityScanCoversLoopFile(t *testing.T) { purityRule.Covers(t) }

func TestForbiddenImports(t *testing.T) { purityRule.Imports(t) }
