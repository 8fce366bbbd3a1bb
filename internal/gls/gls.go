// Package gls provides goroutine-local storage for the MP platform.
//
// SML/NJ stores the per-proc datum in a dedicated virtual register of its
// abstract machine (paper §5).  Go exposes no such register and no
// goroutine-local variables, so the platform keeps a single "baton" slot
// per goroutine and finds it by goroutine identity.  The baton is the
// *proc.Proc currently held by the goroutine; every continuation throw
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
// The slot behaves like the register it stands in for.  An insert-only
// index maps an identity to its slot: a goroutine inserts its key the
// first time it Sets (under a mutex — once per identity, never per
// capture), the key is never removed, and lookups are lock-free probes of
// an open-addressed table that doubles when half full.  Get, Set and Del
// only ever touch the *calling* goroutine's slot, so once found it is read
// and written with plain loads and stores; the one atomic in a slot is the
// set flag, stored only when it changes, which is what lets Len count
// holders from outside.
//
// Identity discipline: a slot belongs to its identity for the life of the
// process, and the runtime recycles g structs, so a new goroutine may
// inherit a dead one's slot.  What it must never inherit is a baton: a
// goroutine that Sets clears its slot (Del) before it ends or goes idle.
// In the platform that is one place — the per-job frame of cont's carrier
// goroutines, through which every platform goroutine runs — plus
// proc.Block, which clears the slot of a holder that gives its proc back
// for the length of an OS call.  A stale baton, not a table leak, is what
// a missed Del costs; cont's tests watch Len for it.
//
// Size: g structs are never freed, so on the register path the index
// holds at most as many keys as the process's peak goroutine count — the
// runtime's own bound — at 16 bytes of index and one cache line of slot
// each.  On the runtime.Stack path ids are never reused, so the index
// grows by one key per goroutine that ever held a baton; recycled
// carriers keep that to the goroutines started beyond cont's free list.
package gls

import (
	"sync"
	"sync/atomic"
)

// slot is one goroutine's baton register.  v is touched by its owner
// alone.  Padded to a cache line: neighbouring slots belong to goroutines
// running on other processors, and every capture writes one.
type slot struct {
	v   any
	set atomic.Bool
	_   [64 - 24]byte
}

type entry struct {
	key atomic.Uint64 // 0 = empty; published after s
	s   *slot
}

// index is one generation of the open-addressed table.  A full
// generation is never mutated again: grow copies it into the next.
type index struct {
	shift   uint // 64 − log2(len(entries))
	entries []entry
}

const initialBits = 8 // 256 entries = 4 KiB until 128 goroutines hold batons

var (
	cur  atomic.Pointer[index]
	mu   sync.Mutex // serialises insert and grow; lookups never take it
	keys int        // inserted so far; guarded by mu
)

func init() { cur.Store(newIndex(initialBits)) }

func newIndex(bits uint) *index {
	return &index{shift: 64 - bits, entries: make([]entry, 1<<bits)}
}

// probe returns the entry holding key (found), or else the empty entry
// that ends key's probe sequence.  g pointers are heap addresses with
// strong alignment structure, so the key is mixed (Fibonacci hashing)
// before indexing.
func (t *index) probe(key uint64) (e *entry, found bool) {
	mask := uint64(len(t.entries) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		e = &t.entries[i]
		switch e.key.Load() {
		case key:
			return e, true
		case 0:
			return e, false
		}
	}
}

// find returns the calling goroutine's slot, or nil if it never Set.  A
// goroutine looks up only its own key, which only it inserts, so a miss
// in any generation loaded after that insert is impossible.
func find(key uint64) *slot {
	if e, found := cur.Load().probe(key); found {
		return e.s
	}
	return nil
}

// insert adds the calling goroutine's key.  Tables stay at most half
// full, so every probe sequence ends.
func insert(key uint64) *slot {
	mu.Lock()
	defer mu.Unlock()
	t := cur.Load()
	if keys++; 2*keys > len(t.entries) {
		next := newIndex(64 - t.shift + 1)
		for i := range t.entries {
			if k := t.entries[i].key.Load(); k != 0 {
				e, _ := next.probe(k)
				e.s = t.entries[i].s
				e.key.Store(k)
			}
		}
		cur.Store(next)
		t = next
	}
	e, _ := t.probe(key)
	e.s = new(slot)
	e.key.Store(key)
	return e.s
}

// ID returns the current goroutine's identity: the g pointer on
// register-path architectures, the runtime.Stack goroutine id elsewhere.
// It is stable for the life of the goroutine and distinct among live
// goroutines; ids of dead goroutines may be reused.
func ID() uint64 { return gKey() }

// Get returns the current goroutine's baton, if one is set.
func Get() (any, bool) {
	if s := find(gKey()); s != nil && s.set.Load() {
		return s.v, true
	}
	return nil, false
}

// Set installs v as the current goroutine's baton.
func Set(v any) {
	key := gKey()
	s := find(key)
	if s == nil {
		s = insert(key)
	}
	// The flag is read before v is written, as Get and Del read it before
	// touching v: a recycled g's new goroutine thereby synchronises with
	// its predecessor's last Del, in terms the race detector can see.
	held := s.set.Load()
	s.v = v
	if !held {
		s.set.Store(true)
	}
}

// Del clears the current goroutine's baton.  Every goroutine that Sets
// must Del before it ends or goes idle: whoever next runs under this
// identity must not observe a predecessor's baton.
func Del() {
	if s := find(gKey()); s != nil && s.set.Load() {
		s.v = nil
		s.set.Store(false)
	}
}

// Len reports the number of goroutines holding a baton; used by tests to
// check for leaks.
func Len() int {
	n := 0
	t := cur.Load()
	for i := range t.entries {
		if e := &t.entries[i]; e.key.Load() != 0 && e.s.set.Load() {
			n++
		}
	}
	return n
}
