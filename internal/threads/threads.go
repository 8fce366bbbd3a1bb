// Package threads implements the paper's thread packages: the uniprocessor
// functor of Fig. 1 (Uni), the multiprocessor functor of Fig. 3 (System
// with a central run queue), and the enhanced package used in the
// evaluation (§6): Fig. 3 plus a distributed run queue and a preemption
// mechanism.
//
// The key representation decision is the paper's: waiting threads are a
// queue of first-class continuations, so scheduling policy is changed
// simply by varying the queue discipline the functor is applied to, and
// synchronization constructs (packages sel, cml, syncx) are built by
// capturing continuations and parking them on their own wait queues.
//
// A queued thread is an Entry: a thunk that, when run, resumes the thread's
// continuation (the paper's `unit cont`, generalized so that clients such
// as Fig. 5's reschedule_thread can bind a value into the continuation
// before queueing it — core.Ready), paired with the thread's integer id,
// which dispatch installs in the per-proc datum before transferring
// control, and with a priority that only a priority discipline reads.
package threads

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/queue"
	"repro/internal/spinlock"
	"repro/internal/trace"
)

// Entry is a ready thread: Run hands the calling proc to the thread's
// continuation — core.Ready's cont.Resume, which returns to a caller
// holding no proc, or a client's cont.Throw, which unwinds it — and ID is
// the thread identifier dispatch installs as the proc datum first.
type Entry struct {
	Run func()
	ID  int
	// Prio is the paper's footnote 1: "priority queues would need a
	// priority to be passed to the enqueue operation".  YieldAt passes
	// it; every other enqueue passes 0.  NewPrioQueue runs the smallest
	// first; the other disciplines ignore it.
	Prio int
}

// NewPrioQueue is the priority ready-queue discipline: the smallest
// Entry.Prio runs first, and equal priorities run in the order queued.
func NewPrioQueue() queue.Queue[Entry] {
	return queue.NewPriority(func(a, b Entry) bool { return a.Prio < b.Prio })
}

// Options parameterize the functor, exactly as MPThread is parameterized
// by QUEUE and LOCK structures.
type Options struct {
	// NewQueue supplies the ready-queue discipline; nil means FIFO, and
	// NewPrioQueue orders by Entry.Prio.
	NewQueue queue.Factory[Entry]
	// NewLock supplies the mutex flavor; nil means the platform default.
	NewLock spinlock.Factory
	// Distributed selects per-proc run queues with stealing, the
	// evaluation package's "distributed run queue".
	Distributed bool
	// Quantum, if nonzero, enables the preemption mechanism: a timer
	// periodically requests that each proc yield; threads honor the
	// request at safe points (Yield, CheckPreempt).  The paper used alarm
	// signals; Go cannot interrupt a goroutine, so this is the
	// timer-driven-polling simulation the paper itself suggests (§3.4).
	Quantum time.Duration
	// Tracer, if non-nil, receives fork/yield/dispatch/steal/preempt
	// events on the acting proc's ring.
	Tracer *trace.Tracer
}

// Stats counts scheduler activity.  It is a merged view of the
// system's per-proc metrics shards.
type Stats struct {
	Forks      int64
	Yields     int64
	Dispatches int64
	Steals     int64
	Preempts   int64
}

type runQueue struct {
	lock spinlock.Lock
	q    queue.Queue[Entry]
	_    [metrics.CacheLineBytes - 32]byte // pad to a full cache line (128 B covers
	// 64/128-byte lines and adjacent-line prefetch) so per-proc queues
	// never share a line
}

// sysMetrics caches the scheduler's counter handles; every counter is
// sharded per proc, so the hot paths touch no shared cache line — the
// shared-atomic Stats struct this replaces bounced its lines across all
// 16 procs on exactly the operations the evaluation counts.
type sysMetrics struct {
	forks      *metrics.Counter
	yields     *metrics.Counter
	dispatches *metrics.Counter
	steals     *metrics.Counter
	preempts   *metrics.Counter
}

// System is a multiprocessor thread package over the MP platform (Fig. 3).
type System struct {
	pl          *proc.Platform
	loop        func() // s.Dispatch, bound once: wake starts it on an idle slot
	distributed bool
	queues      []runQueue // one entry in central mode, MaxProcs in distributed

	nextID atomic.Int64 // last thread id handed out

	quantum time.Duration
	preempt []atomic.Bool

	reg   *metrics.Registry
	m     sysMetrics
	wakes *metrics.Counter // threads.external_wakes

	tracer     *trace.Tracer
	evFork     trace.EventID
	evYield    trace.EventID
	evDispatch trace.EventID
	evSteal    trace.EventID
	evPreempt  trace.EventID
}

// New applies the thread functor to a platform and options.
func New(pl *proc.Platform, opts Options) *System {
	if opts.NewQueue == nil {
		opts.NewQueue = queue.NewFifo[Entry]
	}
	if opts.NewLock == nil {
		opts.NewLock = core.NewMutexLock
	}
	n := 1
	if opts.Distributed {
		n = pl.MaxProcs()
	}
	s := &System{
		pl:          pl,
		distributed: opts.Distributed,
		queues:      make([]runQueue, n),
		quantum:     opts.Quantum,
		preempt:     make([]atomic.Bool, pl.MaxProcs()),
		reg:         pl.Metrics(),
		tracer:      opts.Tracer,
	}
	s.m = sysMetrics{
		forks:      s.reg.Counter("threads.forks"),
		yields:     s.reg.Counter("threads.yields"),
		dispatches: s.reg.Counter("threads.dispatches"),
		steals:     s.reg.Counter("threads.steals"),
		preempts:   s.reg.Counter("threads.preempts"),
	}
	s.wakes = s.reg.Counter("threads.external_wakes")
	if s.tracer != nil {
		s.evFork = s.tracer.Define("threads.fork")
		s.evYield = s.tracer.Define("threads.yield")
		s.evDispatch = s.tracer.Define("threads.dispatch")
		s.evSteal = s.tracer.Define("threads.steal")
		s.evPreempt = s.tracer.Define("threads.preempt")
		pl.SetTracer(s.tracer)
	}
	for i := range s.queues {
		s.queues[i].lock = opts.NewLock()
		s.queues[i].q = opts.NewQueue()
	}
	s.loop = s.Dispatch
	return s
}

// Platform returns the underlying MP platform.
func (s *System) Platform() *proc.Platform { return s.pl }

// Stats returns a snapshot of scheduler counters, merged across the
// per-proc shards on this (cold) read side.
func (s *System) Stats() Stats {
	return Stats{
		Forks:      s.m.forks.Value(),
		Yields:     s.m.yields.Value(),
		Dispatches: s.m.dispatches.Value(),
		Steals:     s.m.steals.Value(),
		Preempts:   s.m.preempts.Value(),
	}
}

// Metrics exposes the registry shared with the underlying platform, so
// harnesses read scheduler and proc counters in one unified snapshot.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// Run bootstraps the platform with root as thread 0 and blocks until the
// computation quiesces (every proc released).  This is how client programs
// join: when the last thread finishes, the last dispatch finds the run
// queues empty and releases its proc.
func (s *System) Run(root func()) {
	var stop chan struct{}
	if s.quantum > 0 {
		stop = make(chan struct{})
		go s.ticker(stop)
	}
	s.nextID.Store(0) // root is thread 0; the first Fork gets 1
	s.pl.Run(func() {
		root()
		s.Dispatch()
	}, 0)
	if stop != nil {
		close(stop)
	}
}

func (s *System) ticker(stop chan struct{}) {
	t := time.NewTicker(s.quantum)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for i := range s.preempt {
				s.preempt[i].Store(true)
			}
		}
	}
}

// ID returns the identifier of the thread executing on the calling proc
// (Fig. 1/3: id).  Thread ids live in the per-proc datum, as §3.2
// prescribes.
func (s *System) ID() int { return threadID(proc.Current()) }

// threadID reads the thread id out of a proc's datum.
func threadID(p *proc.Proc) int {
	d := p.Datum()
	id, ok := d.(int)
	if !ok {
		panic(fmt.Sprintf("threads: proc datum is %T, not a thread id", d))
	}
	return id
}

func (s *System) newID() int { return int(s.nextID.Add(1)) }

// Reschedule makes a ready thread runnable (Fig. 3: reschedule).  In
// distributed mode the entry is pushed on the calling proc's own queue.
// Any goroutine may call it — a synchronization construct's release
// runs on whichever world releases it — so the enqueue is followed by
// Fig. 3's fork rule (wake): no dispatch of the caller's is promised to
// follow, and the thread must not wait for one if a slot is idle.
func (s *System) Reschedule(run func(), id int) {
	self := 0
	if s.distributed {
		self, _ = proc.TrySelf() // a caller outside the MP world homes on queue 0
	}
	s.reschedule(self, run, id, 0)
	s.wake()
}

// reschedule queues an entry on the given proc's queue (queue 0 in
// central mode); self is the caller's proc id, resolved once upstream.
func (s *System) reschedule(self int, run func(), id, prio int) {
	qi := 0
	if s.distributed {
		qi = self % len(s.queues)
	}
	rq := &s.queues[qi]
	rq.lock.Lock()
	rq.q.Enq(Entry{Run: run, ID: id, Prio: prio})
	rq.lock.Unlock()
}

// Dispatch transfers control to some ready thread, or releases the calling
// proc if none is available (Fig. 3: dispatch), and returns to a caller
// that then holds no proc (the core.Scheduler contract).  Dispatch is also
// a revocation safe point: if the OS has reduced the physical-processor
// allowance (§3.1), the proc is released here and the queued work is left
// for the survivors.  Whether the proc leaves, and when, is the platform's
// decision, not a check here followed by a release there.
func (s *System) Dispatch() {
	p := proc.Current()
	self := p.ID()
	s.m.dispatches.Inc(self)
	if s.pl.ReleaseIfRevoked(p) {
		return
	}
	for {
		if e, ok := s.pop(self); ok {
			p.SetDatum(e.ID)
			s.tracer.Emit(self, s.evDispatch, int64(e.ID))
			e.Run()
			mustHaveLeft(s.pl)
			return
		}
		if s.pl.ReleaseUnless(p, s.pending) {
			return
		}
	}
}

// pending reports whether any run queue holds a ready thread.
func (s *System) pending() bool {
	for i := range s.queues {
		rq := &s.queues[i]
		rq.lock.Lock()
		n := rq.q.Len()
		rq.lock.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// pop takes the next ready entry: the local queue first, then — in
// distributed mode — a sweep of the other procs' queues (work stealing).
func (s *System) pop(self int) (Entry, bool) {
	if s.distributed {
		self %= len(s.queues)
	} else {
		self = 0
	}
	n := len(s.queues)
	for i := 0; i < n; i++ {
		rq := &s.queues[(self+i)%n]
		rq.lock.Lock()
		e, err := rq.q.Deq()
		rq.lock.Unlock()
		if err == nil {
			if i != 0 {
				s.m.steals.Inc(self)
				s.tracer.Emit(self, s.evSteal, int64((self+i)%n))
			}
			return e, true
		}
	}
	return Entry{}, false
}

// Fork starts a new thread executing child (Fig. 3: fork).  The kernel
// first attempts to allocate a new proc on which to continue running the
// parent; only if this fails is the parent blocked on the ready queue.
// The child runs on the current proc under a fresh thread id.
func (s *System) Fork(child func()) {
	p := proc.Current()
	self := p.ID()
	s.m.forks.Inc(self)
	cont.Callcc(func(parent *core.UnitCont) core.Unit {
		parentID := threadID(p)
		if err := s.pl.Acquire(proc.PS{K: parent, Datum: parentID}); err != nil {
			if err != proc.ErrNoMoreProcs {
				panic(err)
			}
			s.reschedule(self, core.Ready(parent, core.Unit{}), parentID, 0)
		}
		childID := s.newID()
		p.SetDatum(childID)
		s.tracer.Emit(self, s.evFork, int64(childID))
		child()
		s.Dispatch()
		return core.Unit{} // to the carrier: Dispatch handed the proc on
	})
}

// Yield temporarily gives up the processor to another ready thread
// (Fig. 3: yield).
func (s *System) Yield() { s.YieldAt(0) }

// YieldAt is Yield that re-queues the caller at priority prio, which
// only a priority discipline (NewPrioQueue) reads.
func (s *System) YieldAt(prio int) {
	p := proc.Current()
	self := p.ID()
	s.m.yields.Inc(self)
	s.tracer.Emit(self, s.evYield, int64(prio))
	cont.Callcc(func(k *core.UnitCont) core.Unit { // p.ID(), not self: a four-word closure
		s.reschedule(p.ID(), core.Ready(k, core.Unit{}), threadID(p), prio)
		s.Dispatch()
		return core.Unit{} // to the carrier, as in Fork
	})
}

// Exit terminates the calling thread and dispatches another; it never
// returns.  (Threads forked with Fork also exit implicitly when child
// returns.)  It is the package's one unwinding exit: the calling thread
// may be at any depth, so once Dispatch has handed its proc on, the rest
// of its stack is abandoned.
func (s *System) Exit() {
	s.Dispatch()
	cont.Exit()
}

// CheckPreempt is the safe point of the preemption mechanism: if the
// quantum has expired on this proc, the calling thread yields.  Compute
// loops call it periodically, standing in for the paper's signal-driven
// preemption.  It also answers processor revocation (§3.1): a yield from
// a revoked proc parks the thread and releases the proc in Dispatch.
func (s *System) CheckPreempt() {
	if s.pl.Revoked() {
		s.Yield()
		return
	}
	if s.quantum == 0 {
		return
	}
	i := proc.Self()
	if i < len(s.preempt) && s.preempt[i].CompareAndSwap(true, false) {
		s.m.preempts.Inc(i)
		s.tracer.Emit(i, s.evPreempt, 0)
		s.Yield()
	}
}
