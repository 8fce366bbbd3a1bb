// Package gcsync implements the paper's multiprocessor collection
// protocol (§5) for real: "When the allocation region is completely
// filled and a garbage collection (GC) is required, the procs are
// synchronized at clean points, the collection is performed by one of
// them, and the allocation region is redivided."
//
// A World couples an mlheap.Heap with the set of procs currently
// allocating from it.  Each proc holds an Alloc handle; Record is the
// allocation fast path (a bump in the proc's private region).  When the
// region is exhausted, the allocating proc raises a collection request;
// every registered proc stops at its next clean point (Record or
// CleanPoint call).
//
// Where the paper stops — "the collection is performed by one of them"
// — this package goes on: the last proc to arrive builds a parallel
// collection plan (mlheap.StartCollect) and every other arriver helps
// copy instead of sleeping, the way OC4MC parallelized OCaml's stop.
// The world also exports the GC section to lock implementations:
// InSection is a lock-free flag a spinner can poll, and SectionPoint
// lets a spinner mid-spin either join the collection at a true clean
// point (if its goroutine is Bound to an Alloc) or steal copying work —
// MPL's Parallel_lockTake discipline, so a proc spinning on any lock
// can never convoy a collection.  SetSequential selects the paper's
// one-collector behaviour as the ablation baseline.
//
// Constraints inherited from the paper's design: a proc must not spin
// on a mutex held by a proc that is blocked in a collection unless the
// wait is GC-aware (a syncx.FairLock over this world), and a proc that
// stops allocating for a long stretch should call CleanPoint
// periodically or Detach so it cannot stall a collection.
package gcsync

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gls"
	"repro/internal/metrics"
	"repro/internal/mlheap"
	"repro/internal/trace"
)

// pauseRing bounds how many recent pause durations PauseSummary keeps
// for exact percentiles; the histogram keeps the full distribution.
const pauseRing = 512

// World is a shared heap plus its clean-point protocol state.
type World struct {
	heap *mlheap.Heap

	mu         sync.Mutex
	cond       *sync.Cond
	procs      []*Alloc
	global     []*mlheap.Value // world-wide roots, independent of any proc
	gcNeeded   bool
	gcFlag     atomic.Bool // lock-free mirror of gcNeeded for hot clean points
	collecting bool        // a collection is executing; registration changes must wait
	arrived    int
	generation uint64
	genAtomic  atomic.Uint64 // lock-free mirror of generation, for unlocked helper spins
	gcs        int
	sequential bool         // ablation: one proc collects, the rest wait
	yield      func()       // how barrier waiters idle (green-thread systems install sys.Yield)
	now        func() int64 // tick source for pause accounting (virtual in tests)
	stopStart  int64        // tick when the current stop was requested
	bound      map[uint64]*Alloc

	plan atomic.Pointer[mlheap.Collection] // active parallel plan, for lock-free Help

	rootScratch []*mlheap.Value // reused root-gather buffer (one collection at a time)

	pauses   [pauseRing]int64
	pauseLen int
	pauseIdx int

	pauseTicks *metrics.Histogram // mlheap.gc_pause_ticks: request-to-release
	stopTicks  *metrics.Histogram // mlheap.gc_stop_ticks: request-to-all-stopped
	maxPause   *metrics.Counter   // mlheap.gc_max_pause_ticks: high-water mark
	maxStop    *metrics.Counter   // mlheap.gc_max_stop_ticks: high-water mark of the gather phase
	sections   *metrics.Counter   // gcsync.section_entries: spinner clean points taken
	helps      *metrics.Counter   // gcsync.gc_helps: copying work stolen by non-procs
	attachBusy *metrics.Counter   // gcsync.attach_busy: TryAttach refusals (stop or full slots)

	tracer *trace.Tracer
	evGC   trace.EventID
}

// pauseBounds are in ticks of World.now.  NewWorld's clock is wall
// microseconds and only tests replace it (SetNow), so on the serving path
// mlheap.gc_stop_ticks / gc_pause_ticks *are* microseconds and compare
// directly with request latencies.
var pauseBounds = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 25000}

// NewWorld wraps a heap.  The heap's configured proc count bounds how
// many Allocs may be attached at once.
func NewWorld(cfg mlheap.Config) *World {
	w := &World{heap: mlheap.New(cfg), bound: make(map[uint64]*Alloc)}
	w.cond = sync.NewCond(&w.mu)
	base := time.Now()
	w.now = func() int64 { return time.Since(base).Microseconds() }
	reg := w.heap.Metrics()
	w.pauseTicks = reg.Histogram("mlheap.gc_pause_ticks", pauseBounds)
	w.stopTicks = reg.Histogram("mlheap.gc_stop_ticks", pauseBounds)
	w.maxPause = reg.Counter("mlheap.gc_max_pause_ticks")
	w.maxStop = reg.Counter("mlheap.gc_max_stop_ticks")
	w.sections = reg.Counter("gcsync.section_entries")
	w.helps = reg.Counter("gcsync.gc_helps")
	w.attachBusy = reg.Counter("gcsync.attach_busy")
	return w
}

// Heap exposes the underlying heap for reads (Get/Set/Len).
func (w *World) Heap() *mlheap.Heap { return w.heap }

// SetSequential selects the paper's sequential collection (one proc
// collects, the rest wait) instead of the parallel plan — the ablation
// baseline.  Call before the first allocation.
func (w *World) SetSequential(seq bool) {
	w.mu.Lock()
	w.sequential = seq
	w.mu.Unlock()
}

// SetYield installs the wait primitive barrier waiters use while a
// collection is pending.  Worlds whose procs are green threads MUST
// install their scheduler's yield (e.g. threads.System.Yield): a
// blocked sync.Cond wait would park the OS-level proc and starve the
// green threads the barrier is waiting for.  Raw-goroutine worlds leave
// it nil and block on a cond var.
func (w *World) SetYield(y func()) {
	w.mu.Lock()
	w.yield = y
	w.mu.Unlock()
}

// SetNow replaces the pause-accounting tick source (default: wall-clock
// microseconds from a monotonic base).  Tests install a virtual clock
// for deterministic pause histograms.  Call before the first
// allocation.
func (w *World) SetNow(now func() int64) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// SetTracer attaches an event tracer; each collection appears as a
// "gc.collect" span on the collecting proc's ring.  Call before the
// first allocation.
//
// The ring/tid an Alloc emits on is the proc id recorded at attach
// time.  When the tracer is shared with other instrumented layers
// (proc.Platform, threads.System), attach with AttachProc(proc.Self())
// so GC spans land on the same track as that proc's scheduler events;
// plain Attach uses attach order, a private id domain that only lines
// up with platform proc ids by accident.
func (w *World) SetTracer(t *trace.Tracer) {
	w.tracer = t
	if t != nil {
		w.evGC = t.Define("gc.collect")
	}
}

// AddRoot registers a world-wide root cell: its Value survives
// collections and is forwarded in place regardless of which procs are
// attached.  Use it for structures that outlive the proc that built
// them; per-proc roots belong on the Alloc instead.
func (w *World) AddRoot(r *mlheap.Value) {
	w.mu.Lock()
	w.waitRegistrationLocked()
	w.global = append(w.global, r)
	w.mu.Unlock()
}

// RemoveRoot unregisters a world-wide root cell.
func (w *World) RemoveRoot(r *mlheap.Value) {
	w.mu.Lock()
	w.waitRegistrationLocked()
	for i, x := range w.global {
		if x == r {
			w.global = append(w.global[:i], w.global[i+1:]...)
			break
		}
	}
	w.mu.Unlock()
}

// waitRegistrationLocked holds registration changes (attach, detach,
// root add/remove) off until no collection is executing: the collector
// snapshots the root set and redivides the allocation region, and must
// not race membership changes.  Must be called with w.mu held; may drop
// and retake it.
func (w *World) waitRegistrationLocked() {
	for w.collecting {
		if w.yield != nil {
			y := w.yield
			w.mu.Unlock()
			y()
			w.mu.Lock()
		} else {
			w.cond.Wait()
		}
	}
}

// GCs reports how many collections the world has performed.
func (w *World) GCs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gcs
}

// InSection reports whether the world is inside (or entering) a GC
// section: a collection has been requested and not yet completed.  It
// is a single atomic load, safe from any goroutine; GC-aware locks poll
// it while spinning.
func (w *World) InSection() bool { return w.gcFlag.Load() }

// SectionPoint is the mid-spin clean point a GC-aware lock takes when
// InSection reports a pending collection.  A goroutine Bound to an
// Alloc joins the collection as that proc — the full clean-point
// barrier, releasing the collection it would otherwise stall.  Any
// other goroutine steals copying work from the active parallel plan if
// one is running, else yields so the stopping procs can run.  Safe from
// any goroutine at any time.
func (w *World) SectionPoint() {
	if !w.gcFlag.Load() {
		return
	}
	id := gls.ID()
	w.sections.Inc(int(id))
	w.mu.Lock()
	a := w.bound[id]
	w.mu.Unlock()
	if a != nil {
		a.CleanPoint()
		return
	}
	if c := w.plan.Load(); c != nil {
		if c.Help() {
			w.helps.Inc(int(id))
		}
		return
	}
	runtime.Gosched()
}

// TryHelp steals copying work from the active parallel plan without
// touching the world lock: the entry point for threads that already
// know they are outside the world (an attach retry loop, a poller) and
// must never contend the barrier's mutex while procs are arriving — a
// SectionPoint storm from such threads would starve the very arrivals
// the stop is waiting on.  Reports whether a plan was active; counts a
// section entry when it was.
func (w *World) TryHelp() bool {
	c := w.plan.Load()
	if c == nil {
		return false
	}
	w.sections.Inc(0)
	if c.Help() {
		w.helps.Inc(0)
	} else {
		runtime.Gosched()
	}
	return true
}

// PauseSummary is an exact summary of recent collection pauses (up to
// the last pauseRing collections), in ticks.
type PauseSummary struct {
	Count    int // collections observed (may exceed retained window)
	P50, P99 int64
	Max      int64 // all-time maximum, not windowed
}

// PauseSummary computes exact percentiles over the retained pause
// window plus the all-time maximum.
func (w *World) PauseSummary() PauseSummary {
	w.mu.Lock()
	buf := append([]int64(nil), w.pauses[:w.pauseLen]...)
	count := w.gcs
	max := w.maxPause.Value()
	w.mu.Unlock()
	s := PauseSummary{Count: count, Max: max}
	if len(buf) == 0 {
		return s
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	s.P50 = buf[len(buf)/2]
	s.P99 = buf[(len(buf)*99)/100]
	return s
}

// Alloc is one proc's allocation handle: a private bump region plus the
// proc's registered roots.
type Alloc struct {
	w       *World
	pa      *mlheap.ProcAlloc
	tid     int // proc id recorded at attach time: the trace ring/track
	roots   []*mlheap.Value
	pending []*mlheap.Value // in-flight Record slots, roots during a GC

	// scratch/refs are the stash for in-flight Record slot values when a
	// collection interrupts the call: the values are copied here, their
	// addresses registered as roots, and the (possibly forwarded) values
	// copied back after — so the variadic slice itself never escapes and
	// the no-GC fast path allocates nothing.
	scratch []mlheap.Value
	refs    []*mlheap.Value
}

// Attach registers a new allocating proc with the world, using attach
// order as its trace proc id — fine for a tracer private to this world,
// but see SetTracer when the tracer is shared across layers.
func (w *World) Attach() *Alloc {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.attachLocked(len(w.procs))
}

// AttachProc registers a new allocating proc recording procID as its
// trace proc id, so GC spans merge onto the right track when the tracer
// is shared with the MP platform (pass proc.Self()).
func (w *World) AttachProc(procID int) *Alloc {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.attachLocked(procID)
}

func (w *World) attachLocked(procID int) *Alloc {
	w.waitRegistrationLocked()
	a := &Alloc{w: w, pa: w.heap.NewProcAlloc(), tid: procID}
	w.procs = append(w.procs, a)
	return a
}

// TryAttach registers a new allocating proc if the world can take one
// right now: it returns nil while a collection is pending or executing
// (a fresh proc must not widen the barrier a stopping world is
// waiting on) and when every proc slot is in use.  Callers on serving
// paths park briefly and retry rather than block a scheduler thread.
func (w *World) TryAttach() *Alloc {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gcNeeded || w.collecting {
		w.attachBusy.Inc(0)
		return nil
	}
	pa := w.heap.TryNewProcAlloc()
	if pa == nil {
		w.attachBusy.Inc(0)
		return nil
	}
	a := &Alloc{w: w, pa: pa, tid: len(w.procs)}
	w.procs = append(w.procs, a)
	return a
}

// Detach removes the proc from the world; a detached proc can no longer
// stall collections.  Its allocator slot (and any store-buffer entries
// it holds) returns to the heap's pool for the next attacher.
func (a *Alloc) Detach() {
	w := a.w
	w.mu.Lock()
	w.waitRegistrationLocked()
	for i, p := range w.procs {
		if p == a {
			w.procs = append(w.procs[:i], w.procs[i+1:]...)
			break
		}
	}
	w.heap.ReleaseProcAlloc(a.pa)
	// A pending collection may now have everyone it is waiting for; the
	// detaching proc performs it, so the span goes on its own ring.
	if w.gcNeeded && w.arrived == len(w.procs) && len(w.procs) > 0 {
		w.runCollectionLocked(a)
	}
	w.mu.Unlock()
}

// Bind associates the calling goroutine with this Alloc for the
// duration: a GC-aware lock spun on this goroutine will join pending
// collections as this proc (SectionPoint's bound path) instead of
// merely helping.  Unbind before the goroutine exits or hands the Alloc
// elsewhere; goroutine identities are reused.
func (a *Alloc) Bind() {
	w := a.w
	id := gls.ID()
	w.mu.Lock()
	w.bound[id] = a
	w.mu.Unlock()
}

// Unbind removes the calling goroutine's Bind association.
func (a *Alloc) Unbind() {
	w := a.w
	id := gls.ID()
	w.mu.Lock()
	delete(w.bound, id)
	w.mu.Unlock()
}

// AddRoot registers a cell whose Value must survive collections and be
// forwarded in place; the typical pattern is one root per long-lived
// data structure the proc owns.
func (a *Alloc) AddRoot(r *mlheap.Value) {
	a.w.mu.Lock()
	a.w.waitRegistrationLocked()
	a.roots = append(a.roots, r)
	a.w.mu.Unlock()
}

// RemoveRoot unregisters a previously added root cell.
func (a *Alloc) RemoveRoot(r *mlheap.Value) {
	a.w.mu.Lock()
	a.w.waitRegistrationLocked()
	for i, x := range a.roots {
		if x == r {
			a.roots = append(a.roots[:i], a.roots[i+1:]...)
			break
		}
	}
	a.w.mu.Unlock()
}

// stash copies the in-flight slot values into the Alloc's scratch space
// and returns root cells pointing at the copies.  unstash writes the
// (possibly forwarded) values back.  Keeping the cells on the Alloc —
// not built fresh per call — is what makes Record's no-GC path
// allocation-free.
func (a *Alloc) stash(slots []mlheap.Value) []*mlheap.Value {
	a.scratch = append(a.scratch[:0], slots...)
	a.refs = a.refs[:0]
	for i := range a.scratch {
		a.refs = append(a.refs, &a.scratch[i])
	}
	return a.refs
}

func (a *Alloc) unstash(slots []mlheap.Value) {
	copy(slots, a.scratch)
	a.refs = a.refs[:0]
	a.scratch = a.scratch[:0]
}

// Record allocates a record, synchronizing with collections as needed.
// The slot values are protected across any collection that happens
// inside the call — whether raised by this proc or joined at the clean
// point on behalf of another — by registering them as roots, so callers
// may freely pass heap pointers.  When no collection intervenes the
// call performs zero Go-heap allocations.
func (a *Alloc) Record(slots ...mlheap.Value) mlheap.Value {
	for {
		if a.w.gcFlag.Load() {
			a.joinInflight(slots)
		}
		v, err := a.pa.AllocRecord(slots...)
		if err == nil {
			return v
		}
		// Region exhausted: raise a collection.
		a.raiseInflight(slots)
	}
}

// joinInflight joins a pending collection with the given in-flight slot
// values registered as roots.
func (a *Alloc) joinInflight(slots []mlheap.Value) {
	w := a.w
	w.mu.Lock()
	if w.gcNeeded {
		a.waitForGCLocked(a.stash(slots))
		a.unstash(slots)
	}
	w.mu.Unlock()
}

// raiseInflight raises (or joins) a collection request with the given
// in-flight slot values registered as roots.
func (a *Alloc) raiseInflight(slots []mlheap.Value) {
	w := a.w
	w.mu.Lock()
	w.raiseLocked()
	a.waitForGCLocked(a.stash(slots))
	a.unstash(slots)
	w.mu.Unlock()
}

// CleanPoint is the paper's clean point: if a collection has been
// requested, the calling proc stops here until it completes.  Procs that
// compute for long stretches without allocating should call it
// periodically.
func (a *Alloc) CleanPoint() { a.cleanPoint(nil) }

// cleanPoint joins any pending collection, registering the caller's
// in-flight values as roots for the duration.  The fast path is a single
// atomic load, so instruction-level callers (the vm package polls every
// few dozen instructions) pay almost nothing when no collection is
// pending.
func (a *Alloc) cleanPoint(inflight []*mlheap.Value) {
	w := a.w
	if !w.gcFlag.Load() {
		return
	}
	w.mu.Lock()
	if w.gcNeeded {
		a.waitForGCLocked(inflight)
	}
	w.mu.Unlock()
}

// raiseLocked marks a collection as needed, time-stamping the start of
// the stop on the first raise.
func (w *World) raiseLocked() {
	if !w.gcNeeded {
		w.gcNeeded = true
		w.gcFlag.Store(true)
		w.stopStart = w.now()
	}
}

// requestGC raises (or joins) a collection request with extra in-flight
// roots.
func (a *Alloc) requestGC(extra []*mlheap.Value) {
	w := a.w
	w.mu.Lock()
	w.raiseLocked()
	a.waitForGCLocked(extra)
	w.mu.Unlock()
}

// waitForGCLocked joins the clean-point barrier; the last proc to
// arrive collects, and under the parallel plan the earlier arrivers
// steal copying work instead of sleeping.  Called with w.mu held;
// returns with w.mu held, after the collection.
func (a *Alloc) waitForGCLocked(extra []*mlheap.Value) {
	w := a.w
	a.pending = extra
	w.arrived++
	if w.arrived == len(w.procs) {
		w.runCollectionLocked(a)
		a.pending = nil
		return
	}
	gen := w.generation
	for w.generation == gen {
		if c := w.plan.Load(); c != nil {
			// A parallel plan is running: become a collector.  Spin off
			// the world lock entirely — the atomic generation mirror ends
			// the spin — so the helpers' polling never contends w.mu
			// against the coordinator's relock; on one CPU that
			// contention is pure pause inflation.
			y := w.yield
			w.mu.Unlock()
			for w.genAtomic.Load() == gen {
				if c.Help() {
					continue // more work may follow what we just did
				}
				if y != nil {
					y()
				} else {
					runtime.Gosched()
				}
			}
			w.mu.Lock()
			continue
		}
		if w.yield != nil {
			// Green-thread proc: blocking the cond var would park the OS
			// thread multiplexing the very threads the barrier awaits.
			y := w.yield
			w.mu.Unlock()
			y()
			w.mu.Lock()
		} else {
			w.cond.Wait()
		}
	}
	a.pending = nil
}

// runCollectionLocked performs the collection over every registered
// root and releases the barrier.  Called with w.mu held; collector is
// the Alloc of the goroutine actually performing the collection, so the
// trace span is emitted on a ring that goroutine owns (trace rings are
// single-writer).
//
// Under the parallel plan the lock is dropped while the copy runs so
// that barrier waiters (and GC-aware lock spinners) can steal work; the
// collecting flag keeps registration changes out for the duration.  The
// coordinating goroutine itself polls with runtime.Gosched — never the
// green yield hook, because Detach-driven collections may run on host
// goroutines where a green yield would be invalid, and the coordinator
// makes progress regardless: helpers are an optimization, never a
// dependency.
func (w *World) runCollectionLocked(collector *Alloc) {
	w.tracer.Begin(collector.tid, w.evGC)
	// Reused scratch: the root gather runs thousands of times a second
	// and must not feed the host runtime's allocator (whose GC pauses
	// would surface in our tails).  Safe to reuse — one collection at a
	// time, and the heap copies the roots it retains into its own plan.
	roots := w.rootScratch[:0]
	roots = append(roots, w.global...)
	for _, p := range w.procs {
		roots = append(roots, p.roots...)
		roots = append(roots, p.pending...)
	}
	w.rootScratch = roots
	w.collecting = true
	stopped := w.now()
	if w.sequential {
		w.heap.Collect(roots)
	} else {
		c := w.heap.StartCollect(roots)
		w.plan.Store(c)
		w.cond.Broadcast() // switch cond-blocked waiters into helpers
		w.mu.Unlock()
		c.Run(nil)
		w.mu.Lock()
		w.plan.Store(nil)
	}
	end := w.now()
	stop, pause := stopped-w.stopStart, end-w.stopStart
	w.stopTicks.Observe(collector.tid, stop)
	w.pauseTicks.Observe(collector.tid, pause)
	if cur := w.maxPause.Value(); pause > cur {
		// Single-writer under w.mu: raise the high-water counter by the
		// delta so Value always reads the maximum.
		w.maxPause.Add(0, pause-cur)
	}
	if cur := w.maxStop.Value(); stop > cur {
		w.maxStop.Add(0, stop-cur)
	}
	w.pauses[w.pauseIdx] = pause
	w.pauseIdx = (w.pauseIdx + 1) % pauseRing
	if w.pauseLen < pauseRing {
		w.pauseLen++
	}
	w.tracer.End(collector.tid, w.evGC)
	w.gcs++
	w.collecting = false
	w.gcNeeded = false
	w.gcFlag.Store(false)
	w.arrived = 0
	w.generation++
	w.genAtomic.Store(w.generation)
	w.cond.Broadcast()
}

// Bytes allocates a byte object (an ML string), synchronizing with
// collections as needed.
func (a *Alloc) Bytes(data []byte) mlheap.Value {
	for {
		a.cleanPoint(nil)
		v, err := a.pa.AllocBytes(data)
		if err == nil {
			return v
		}
		a.requestGC(nil)
	}
}

// Set writes slot i of record v through this proc's allocator: the
// old-to-young write barrier goes to the proc's private store buffer
// with no lock — §5's synchronization-free assignment path.
func (a *Alloc) Set(v mlheap.Value, i int, x mlheap.Value) { a.pa.Set(v, i, x) }
