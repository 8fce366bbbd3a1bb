package serve

// /work/mlalloc is the ML-heap-backed allocating kernel: the request
// path that finally connects the paper's memory-management half (§5,
// mlheap + gcsync) to the serving fabric built on its scheduling half.
// Each request attaches to the server's shared gcsync.World as a proc,
// builds an n-cell cons list with Record (bump allocation, clean points
// at every call), publishes its list head into a small shared registry
// record guarded by a GC-aware lock, folds the list back down, and
// detaches.  Under load, concurrent requests exhaust the nursery and
// meet at the clean-point barrier, where they collect in parallel —
// the /metrics counters mlheap.gc_pause_ticks, mlheap.par_copied_words
// and gcsync.section_entries expose exactly that machinery.

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/gcsync"
	"repro/internal/mlheap"
)

const (
	mlSharedSlots = 16  // registry record slots shared across requests
	mlFoldStride  = 512 // list cells folded between explicit clean points
	mlMaxCells    = 1 << 16
)

// initMLAlloc wires the shared world into the server: the yield hook
// (barrier waiters on a green-thread world must yield the scheduler,
// not park the OS thread), the shared registry record the handlers
// publish into, its GC-aware guard lock (from New's lock factory), and
// the /work/mlalloc route.  Called from New when Options.MLWorld is set.
func (srv *Server) initMLAlloc(guard core.Lock) {
	w := srv.opts.MLWorld
	srv.mlWorld = w
	srv.mlLock = guard
	// Bootstrap the shared registry on the host goroutine: attach a
	// temporary proc, allocate the record, hand the root to the world.
	// This happens before the yield hook is installed — the host
	// goroutine is not a scheduler thread and must not green-yield.
	boot := w.Attach()
	slots := make([]mlheap.Value, mlSharedSlots)
	for i := range slots {
		slots[i] = mlheap.Int(0)
	}
	srv.mlShared = boot.Record(slots...)
	w.AddRoot(&srv.mlShared)
	boot.Detach()
	// From here the world's procs are serve's green threads: barrier
	// waiters must yield the thread scheduler, never park the OS thread
	// multiplexing the very threads the barrier is waiting for.
	w.SetYield(srv.sys.Yield)
	srv.Handle("/work/mlalloc", srv.handleMLAlloc)
}

// handleMLAlloc serves one allocating request:
// /work/mlalloc?n=<cells>&seed=<s>.  The reply carries the fold
// checksum plus the world's collection count, so load generators can
// assert collections actually happened.
func (srv *Server) handleMLAlloc(req *Request) Response {
	n := req.QueryInt("n", 2048)
	if n < 1 {
		n = 1
	}
	if n > mlMaxCells {
		n = mlMaxCells
	}
	seed := int64(req.QueryInt("seed", 1))

	// Attach as a proc.  TryAttach refuses while a collection is pending
	// (a fresh proc must not widen a closing barrier) and while all proc
	// slots are taken.  When the refusal coincides with a running
	// parallel copy, steal copying work and re-try immediately — a tick
	// park (milliseconds) would otherwise stretch every request that
	// lands during a microsecond-scale stop.
	// TryHelp is lock-free by design: polling the world mutex here
	// would contend the very barrier the stop is waiting on.  In every
	// other case park a tick and retry rather than blocking a scheduler
	// thread; shed if the server starts draining meanwhile.
	var a *gcsync.Alloc
	for {
		if a = srv.mlWorld.TryAttach(); a != nil {
			break
		}
		if srv.Draining() || req.Expired() {
			return Response{Status: 503, Body: []byte("mlalloc: no proc slot\n")}
		}
		if srv.mlWorld.TryHelp() {
			continue
		}
		srv.park(1)
	}
	// From here to Detach this thread is a proc: it must keep reaching
	// clean points (every Record is one) and must not park on the clock,
	// or it would stall every collection in the world.
	defer a.Detach()

	var list mlheap.Value = mlheap.Nil
	a.AddRoot(&list)
	defer a.RemoveRoot(&list)

	sum := int64(0)
	for i := 0; i < n; i++ {
		v := seed + int64(i)
		list = a.Record(mlheap.Int(v), list)
		sum += v
		if (i+1)%mlFoldStride == 0 {
			// The paper's preemption safe point: without it the
			// allocation loop monopolizes its scheduler thread for the
			// whole request and handlers serialize — no two procs would
			// ever overlap inside the ML section, and the stop barrier
			// would always find a world of one.  Yielding on quantum
			// expiry is what makes the parallel-collection machinery
			// reachable under serving load at all.
			srv.sys.CheckPreempt()
		}
	}

	// Publish the list head into the shared registry and mix in the
	// value another request left there.  The read must extract the Int
	// while the lock is held: after unlock the slot can be overwritten
	// and the old value collected.  The lock is GC-aware, so waiting
	// here can never convoy a collection raised by another proc.
	slot := int(seed) % mlSharedSlots
	if slot < 0 {
		slot += mlSharedSlots
	}
	h := srv.mlWorld.Heap()
	srv.mlLock.Lock()
	prev := h.Get(srv.mlShared, slot)
	if prev.IsInt() {
		sum += prev.Int()
	} else {
		sum += h.Get(prev, 0).Int() // head cell of an earlier request's list
	}
	a.Set(srv.mlShared, slot, list)
	srv.mlLock.Unlock()

	// Fold the list back down, taking an explicit clean point every
	// stride so a long fold cannot stall a collection.  The cursor is the
	// registered root itself (the registry slot now holds the head): a
	// copying collection at one of those clean points forwards it in
	// place, where a bare local would be left pointing into from-space.
	fold := int64(0)
	cells := 0
	for ; list != mlheap.Nil; list = h.Get(list, 1) {
		fold += h.Get(list, 0).Int()
		cells++
		if cells%mlFoldStride == 0 {
			a.CleanPoint()
			srv.sys.CheckPreempt()
		}
	}

	return Response{
		Status: 200,
		Body:   appendMLAllocReply(make([]byte, 0, mlReplyCap), n, cells, sum, fold, srv.mlWorld.GCs()),
	}
}

// mlReplyCap holds the longest reply appendMLAllocReply can render (34
// bytes of labels, two counts of at most 5 digits and three int64s of at
// most 20), so the body is a single allocation.
const mlReplyCap = 104

// appendMLAllocReply renders the reply line — byte for byte what
// fmt.Sprintf("mlalloc n=%d cells=%d sum=%d fold=%d gcs=%d\n", …) gives,
// which is what load generators Sscanf — without fmt's reflection walk.
func appendMLAllocReply(dst []byte, n, cells int, sum, fold int64, gcs int) []byte {
	dst = strconv.AppendInt(append(dst, "mlalloc n="...), int64(n), 10)
	dst = strconv.AppendInt(append(dst, " cells="...), int64(cells), 10)
	dst = strconv.AppendInt(append(dst, " sum="...), sum, 10)
	dst = strconv.AppendInt(append(dst, " fold="...), fold, 10)
	dst = strconv.AppendInt(append(dst, " gcs="...), int64(gcs), 10)
	return append(dst, '\n')
}

// MLStatsLine renders the world's GC state for /fabricz-style status
// pages; empty when the server has no world.
func (srv *Server) MLStatsLine() string {
	if srv.mlWorld == nil {
		return ""
	}
	st := srv.mlWorld.Heap().Stats()
	p := srv.mlWorld.PauseSummary()
	return fmt.Sprintf("gc: gcs=%d minor=%d major=%d escalations=%d live=%d pause_p50=%d pause_p99=%d pause_max=%d",
		srv.mlWorld.GCs(), st.MinorGCs, st.MajorGCs, st.Escalations, st.LiveWords, p.P50, p.P99, p.Max)
}
