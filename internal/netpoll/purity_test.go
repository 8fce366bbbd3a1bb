package netpoll

// The purity rule extends to the poller: readiness notification is part
// of the MP front's hot path, so it is built on raw syscalls and plain
// data — no goroutines, channels, or select, and no imports that would
// smuggle them in.  Same scanner as internal/serve's and
// internal/shard's (internal/purity).

import (
	"testing"

	"repro/internal/purity"
)

var purityRule = purity.Rule{
	Dir:     ".",
	Subject: "netpoll must use raw syscalls only",
	// The shared surface and the platform backends.
	Required: []string{"netpoll.go", "netpoll_linux.go", "netpoll_fallback.go"},
	Banned: map[string]string{
		"net/http": "spawns goroutines per connection, bypassing the MP scheduler",
		"sync":     "raw Go synchronization; a Poller is single-owner by contract",
		"net":      "netpoll works on raw fds; the net package's runtime poller must stay out",
		"os":       "os.File wraps fds back into the runtime poller",
	},
}

func TestNetpollUsesOnlyMPPrimitives(t *testing.T) { purityRule.Tokens(t) }

// TestPurityScanCoversNetpollFiles pins the scan's coverage: the shared
// surface and the platform backends must all be present in the directory
// the scanner iterates, so a rename cannot silently drop one from the
// purity rule.  Build tags keep only one backend in any given build, but
// both files sit in the directory and both get scanned.
func TestPurityScanCoversNetpollFiles(t *testing.T) { purityRule.Covers(t) }

func TestNetpollForbiddenImports(t *testing.T) { purityRule.Imports(t) }
