package pubsub

// The purity rule extends to the broker: topic threads, the delivery
// world, subscriber rings, and the admission path are all built
// strictly on the MP public surface plus CML events.  Same scanner as
// internal/serve's and internal/shard's (internal/purity): tokenize
// every non-test source and reject the Go concurrency keywords and the
// imports that would smuggle them in.  The only OS-level concurrency
// the broker needs is the host goroutine running Broker.Runner —
// started by the host, never in here.

import (
	"testing"

	"repro/internal/purity"
)

var purityRule = purity.Rule{
	Dir:     ".",
	Subject: "the broker must use MP primitives only",
	// The files carrying the broker, delivery, and stream paths.
	Required: []string{"pubsub.go", "qos.go", "stream.go", "migrate.go"},
	Banned: map[string]string{
		"net/http": "spawns goroutines per connection, bypassing the MP scheduler",
		"sync":     "raw Go synchronization; use core locks / syncx",
	},
}

func TestBrokerUsesOnlyMPPrimitives(t *testing.T) { purityRule.Tokens(t) }

// TestPurityScanCoversBrokerFiles pins the scan's coverage: the files
// carrying the broker, delivery, and stream paths must all be present
// in the directory listing the scanners iterate, so a rename or split
// cannot silently drop one from the purity rule.
func TestPurityScanCoversBrokerFiles(t *testing.T) { purityRule.Covers(t) }

func TestBrokerForbiddenImports(t *testing.T) { purityRule.Imports(t) }
