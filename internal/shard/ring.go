package shard

// The forward path's data structure: a bounded MPSC ring per shard
// (many front connection threads push, one backend intake thread pops).
// The reply cells and batch-completion groups travelling the other way
// live in reply.go.
//
// The ring's two sides live in different thread systems, and the rule
// for whatever crosses that boundary is: a primitive wakes on the system
// it was built on; the waker never parks on a foreign scheduler.  The
// data moves under a core lock — the paper's spinlock, or its
// fair/GC-aware variants from syncx.LockFactory — which parks nobody.
// The consumer's idleness is a threads.Wake the backend owns
// (backend.wake): the intake blocks on it, no proc held, and every push
// signals it — one load while a signal is already pending.

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/serve"
)

// job is one forwarded request: the parsed request, its remaining
// deadline budget in ticks (rebased onto the shard's clock at Submit),
// the front-clock tick it entered the ring (so intake can charge ring
// dwell against the budget), and the reply cell.
type job struct {
	req       *serve.Request
	remaining int64
	pushed    int64 // front-clock tick at push
	rep       *reply
	pinned    bool // topic-routed: must run on this ring's owner, never stolen
}

// ring is the bounded MPSC forward ring.  Occupancy is mirrored in an
// atomic so load probes (rebalancer, steal victim selection) read depth
// without touching the spinlock the hot path contends on.
type ring struct {
	lock   core.Lock
	buf    []job
	head   int // next pop
	count  int
	closed bool         // released member: pushes refuse, pops drain
	occ    atomic.Int64 // == count, updated inside the critical sections
}

func newRing(depth int, lock core.Lock) *ring {
	return &ring{lock: lock, buf: make([]job, depth)}
}

// close permanently refuses new pushes — the released member's ring
// behaves like a full ring (front sheds 503), while pops keep draining
// what already landed.  A job in a ring is always answered.
func (r *ring) close() {
	r.lock.Lock()
	r.closed = true
	r.lock.Unlock()
}

// pushN appends up to len(js) jobs under one lock acquisition and
// returns how many fit — the multi-push a front connection thread uses
// to forward a whole pipelined batch for the price of one spinlock
// round-trip.  The admitted jobs are a prefix of js; the caller sheds
// the rest with 503.
func (r *ring) pushN(js []job) int {
	if len(js) == 0 {
		return 0
	}
	r.lock.Lock()
	n := len(r.buf) - r.count
	if r.closed {
		n = 0
	}
	if n > len(js) {
		n = len(js)
	}
	for i := 0; i < n; i++ {
		r.buf[(r.head+r.count+i)%len(r.buf)] = js[i]
	}
	r.count += n
	r.occ.Store(int64(r.count))
	r.lock.Unlock()
	return n
}

// popN removes up to len(dst) oldest jobs under one lock acquisition and
// returns how many it moved — the batched dequeue the shard's intake
// thread drains its ring with.
func (r *ring) popN(dst []job) int {
	if len(dst) == 0 {
		return 0
	}
	r.lock.Lock()
	n := r.count
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = job{} // drop references for the collector
		r.head = (r.head + 1) % len(r.buf)
	}
	r.count -= n
	r.occ.Store(int64(r.count))
	r.lock.Unlock()
	return n
}

// stealN claims up to half the victim's queued jobs (oldest first, so a
// stolen request never overtakes one left behind) for an idle sibling.
// Pinned jobs — pub/sub requests whose topic state lives only on this
// ring's owner — are never taken: a stolen publish would be acked by a
// broker holding none of the topic's subscribers, silently dropping the
// fan-out.  Skipping them keeps both the stolen run and the survivors
// in their original relative order, at the cost of an O(count) compact
// under the lock — acceptable on the cold steal path.  It uses TryLock
// — the claim/release handoff: a thief that meets contention aborts
// immediately (-1) rather than spinning on a foreign shard's hot lock,
// since the owner being inside the critical section means the ring is
// being drained anyway.  Returns 0 when the ring is uncontended but
// empty (or holds only pinned jobs).
func (r *ring) stealN(dst []job) int {
	if !r.lock.TryLock() {
		return -1
	}
	limit := (r.count + 1) / 2
	if limit > len(dst) {
		limit = len(dst)
	}
	taken, kept := 0, 0
	for i := 0; i < r.count; i++ {
		j := r.buf[(r.head+i)%len(r.buf)]
		if taken < limit && !j.pinned {
			dst[taken] = j
			taken++
		} else {
			r.buf[(r.head+kept)%len(r.buf)] = j
			kept++
		}
	}
	for i := kept; i < r.count; i++ {
		r.buf[(r.head+i)%len(r.buf)] = job{}
	}
	r.count = kept
	r.occ.Store(int64(r.count))
	r.lock.Unlock()
	return taken
}

// depth reports the current occupancy (a rebalancer load input and the
// steal victim-selection key) from the atomic mirror — no lock, so
// probing N sibling rings does not disturb their hot paths.
func (r *ring) depth() int {
	return int(r.occ.Load())
}
