package shard

// The purity rule extends to the fabric: the front acceptor, connection
// threads, forward rings, intake threads, and rebalancer are all built
// strictly on the MP public surface.  Same scanner as internal/serve's
// (internal/purity): tokenize every non-test source and reject the Go
// concurrency keywords and the imports that would smuggle them in.  The
// only OS-level concurrency the fabric needs is the host goroutine per
// Runners entry — started by the host, never in here.

import (
	"testing"

	"repro/internal/purity"
)

var purityRule = purity.Rule{
	Dir:     ".",
	Subject: "the fabric must use MP primitives only",
	// The files carrying the forward, batching, and stealing hot paths.
	Required: []string{"shard.go", "front.go", "mux.go", "ring.go", "reply.go", "steal.go", "rebalance.go", "route.go", "member.go"},
	Banned: map[string]string{
		"net/http": "spawns goroutines per connection, bypassing the MP scheduler",
		"sync":     "raw Go synchronization; use core locks / syncx",
	},
}

func TestFabricUsesOnlyMPPrimitives(t *testing.T) { purityRule.Tokens(t) }

// TestPurityScanCoversHotPathFiles pins the scan's coverage: the files
// carrying the forward, batching, and stealing hot paths must all be
// present in the directory listing the scanners iterate, so a rename or
// split cannot silently drop one from the purity rule.
func TestPurityScanCoversHotPathFiles(t *testing.T) { purityRule.Covers(t) }

func TestFabricForbiddenImports(t *testing.T) { purityRule.Imports(t) }
