// Package gls provides goroutine-local storage for the MP platform.
//
// SML/NJ stores the per-proc datum in a dedicated virtual register of its
// abstract machine (paper §5).  Go exposes no such register and no
// goroutine-local variables, so the platform keeps a single "baton" slot per
// goroutine in a sharded table keyed by goroutine identity.  The baton is
// the *proc.Proc currently held by the goroutine; every continuation throw
// and proc acquire/release updates it, so a read always observes the proc
// that is executing the reading code — exactly the invariant the hardware
// register gave SML/NJ.
//
// Goroutine identity comes from one of two sources:
//
//   - On amd64 and arm64, a two-instruction assembly stub reads the
//     runtime's g pointer (the thread-local "current goroutine" register,
//     stable for the goroutine's whole life because g structs never move).
//     This is the moral equivalent of the paper's virtual register: a
//     single register read, a handful of nanoseconds.
//   - Elsewhere, the id is parsed from the header line of runtime.Stack, a
//     well-known (if unlovely) technique.  It is dramatically slower —
//     runtime.Stack symbolizes the whole stack, and continuation-heavy MP
//     stacks run deep — which is why the register path exists: profiling
//     the serving fabric showed the parser consuming ~90% of total CPU.
//
// Identity discipline: because a dead goroutine's g may be reused by a
// future goroutine, every goroutine that Sets a baton MUST Del it before
// exiting.  A leaked entry is not just a table leak — under g-pointer
// keying a later goroutine could adopt the stale baton.  All platform
// goroutine roots (all started by cont.Go) Del on every exit
// path, and cont's tests watch Len for leaks.
package gls

import "sync"

const shardCount = 64

type shard struct {
	mu sync.Mutex
	m  map[uint64]any
}

var table [shardCount]shard

func init() {
	for i := range table {
		table[i].m = make(map[uint64]any, 16)
	}
}

// shardOf mixes the id before sharding: g pointers are heap addresses with
// strong alignment structure, so id%shardCount alone would pile every
// goroutine onto a few shards.
func shardOf(id uint64) *shard {
	h := id * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return &table[h>>(64-6)]
}

// ID returns the current goroutine's identity: the g pointer on
// register-path architectures, the runtime.Stack goroutine id elsewhere.
// It is stable for the life of the goroutine and distinct among live
// goroutines; ids of dead goroutines may be reused.
func ID() uint64 { return gKey() }

// Get returns the current goroutine's baton, if one is set.
func Get() (any, bool) {
	id := gKey()
	s := shardOf(id)
	s.mu.Lock()
	v, ok := s.m[id]
	s.mu.Unlock()
	return v, ok
}

// Set installs v as the current goroutine's baton.
func Set(v any) {
	id := gKey()
	s := shardOf(id)
	s.mu.Lock()
	s.m[id] = v
	s.mu.Unlock()
}

// Del removes the current goroutine's baton.  Every goroutine that Sets a
// baton must Del it before exiting: the table does not otherwise shrink,
// and a reused goroutine identity must not observe a predecessor's baton.
func Del() {
	id := gKey()
	s := shardOf(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// Len reports the number of live baton entries; used by tests to check for
// leaks.
func Len() int {
	n := 0
	for i := range table {
		table[i].mu.Lock()
		n += len(table[i].m)
		table[i].mu.Unlock()
	}
	return n
}
