// Package proc implements the Proc half of the MP platform (paper §3.1,
// §3.2): a language-level view of a kernel thread executing on a physical
// processor.
//
// A proc here is a *token* drawn from a bounded pool.  At any instant
// exactly one goroutine holds each live token; holding the token is what
// it means to "be" that proc, and the Go scheduler supplies the actual
// parallelism (up to GOMAXPROCS) just as Irix/Dynix/Mach supplied it to
// SML/NJ.  The pool reproduces the paper's semantics precisely:
//
//   - a compile-time-style constant (MaxProcs) bounds the procs the
//     runtime will provide; Acquire past the limit returns ErrNoMoreProcs
//     (the exception No_More_Procs);
//   - Release returns the token and may later be re-used by a subsequent
//     Acquire, mirroring "the runtime system may choose to re-use a
//     previously released kernel thread";
//   - each proc carries a single client-defined datum, read and written by
//     GetDatum/SetDatum; the datum follows the proc, not the thread, and
//     is conveyed across continuation throws by the baton protocol in
//     package cont.
//
// Initially a single root proc executes the client's root function; the
// platform's Run returns when every proc has been released (quiescence),
// which is how client programs join.
//
// Two things the paper's procs got from the operating system for free
// are explicit here, because a Go proc is a token and not a kernel
// thread.  A proc whose holder enters a blocking OS call is a released
// proc — Block hands the token back, Unblock takes one again — yet the
// platform does not quiesce under a holder that is coming back.  And
// whether a slot is idle is one atomic word (limit minus tokens held),
// so the two hot questions a scheduler asks — "would Acquire succeed?"
// and "am I over the allowance?" — never take the platform mutex.
package proc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cont"
	"repro/internal/gls"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrNoMoreProcs is the paper's exception No_More_Procs: the proc limit
// has been reached and no released proc is available for re-use.
var ErrNoMoreProcs = errors.New("mp: no more procs")

// Proc is a processor token.  Its fields are accessed only by the single
// goroutine currently holding it; hand-off between goroutines happens via
// channel sends, which establish the necessary happens-before edges.
type Proc struct {
	id       int
	datum    any
	released bool // token is in the pool; guarded by the platform mutex
	pl       *Platform
}

// ID returns the proc's small dense identifier (0 is the root proc).
func (p *Proc) ID() int { return p.id }

// Datum returns the proc's private datum.  Like GetDatum it is only
// safe on the goroutine currently holding the proc; clients that
// already hold a Current() result use it to avoid a second
// goroutine-local lookup.
func (p *Proc) Datum() any { return p.datum }

// SetDatum overwrites the proc's private datum; same holder-only
// contract as Datum.
func (p *Proc) SetDatum(d any) { p.datum = d }

// PS is the paper's proc_state: the continuation a newly acquired proc
// starts executing, plus the initial per-proc datum.
type PS struct {
	K     *cont.Cont[cont.Unit]
	Datum any
}

// Stats counts platform activity; useful for tests and the evaluation
// harness.  It is a merged view of the platform's metrics registry.
type Stats struct {
	Created  int // distinct proc tokens ever created
	Acquired int // successful Acquire calls (including re-use)
	Reused   int // Acquires satisfied from the free list
	Refused  int // Acquires that returned ErrNoMoreProcs
	Released int // Release calls
}

// platformMetrics caches the platform's counter handles so the
// registry's name lookup never appears on the acquire/release path.
type platformMetrics struct {
	created  *metrics.Counter
	acquired *metrics.Counter
	reused   *metrics.Counter
	refused  *metrics.Counter
	released *metrics.Counter
	blocking *metrics.Counter
}

// Platform is the MP processor manager.
type Platform struct {
	max     int
	mu      sync.Mutex
	free    []*Proc
	created int
	limit   int           // current physical-processor allowance (≤ max)
	blocked int           // holders between Block and Unblock: no token, but Run waits for them
	quiet   chan struct{} // closed when the last token returns with nobody blocked; nil outside Run
	inRun   atomic.Bool

	// idle mirrors limit − held() while Run is live (0 otherwise), written
	// under mu: positive means Acquire can succeed, negative means the
	// allowance has been revoked below the tokens out.
	idle atomic.Int32

	reg *metrics.Registry
	m   platformMetrics

	tracer    *trace.Tracer
	evAcquire trace.EventID
	evRelease trace.EventID
	evRefuse  trace.EventID
}

// New returns a platform that will provide at most maxProcs procs, the
// analogue of the runtime's compile-time proc limit.  Typical clients set
// maxProcs to the number of physical processors (runtime.GOMAXPROCS(0)).
func New(maxProcs int) *Platform {
	if maxProcs < 1 {
		panic("proc: platform needs at least one proc")
	}
	pl := &Platform{max: maxProcs, limit: maxProcs, reg: metrics.NewRegistry(maxProcs)}
	pl.m = platformMetrics{
		created:  pl.reg.Counter("proc.created"),
		acquired: pl.reg.Counter("proc.acquired"),
		reused:   pl.reg.Counter("proc.reused"),
		refused:  pl.reg.Counter("proc.refused"),
		released: pl.reg.Counter("proc.released"),
		blocking: pl.reg.Counter("proc.blocking_calls"),
	}
	return pl
}

// MaxProcs reports the platform's proc limit.
func (pl *Platform) MaxProcs() int { return pl.max }

// SetLimit changes the number of physical processors the platform may
// use, clamped to [1, MaxProcs].  The paper's §3.1: "the number of
// physical processors available to an SML/NJ image can change without
// warning during a computation, as a result of activity by other users
// and by the operating system itself."  Shrinking the limit does not
// preempt anyone — procs discover the revocation at their next safe
// point (ReleaseIfRevoked) and release themselves, the cooperative model
// the paper's clients use for everything.
func (pl *Platform) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	if n > pl.max {
		n = pl.max
	}
	pl.mu.Lock()
	pl.limit = n
	pl.syncIdle()
	pl.mu.Unlock()
}

// Limit reports the current physical-processor allowance.
func (pl *Platform) Limit() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.limit
}

// Live reports how many procs are currently held by clients.
func (pl *Platform) Live() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.held()
}

// held is the number of tokens out of the pool; call with mu held.
func (pl *Platform) held() int { return pl.created - len(pl.free) }

// syncIdle republishes the idle word after held() or limit changed;
// call with mu held.
func (pl *Platform) syncIdle() {
	n := 0
	if pl.quiet != nil {
		n = pl.limit - pl.held()
	}
	pl.idle.Store(int32(n))
}

// Revoked reports whether more procs are live than the current limit
// allows, i.e. whether the calling proc should save its state and reach
// a safe point.  Any proc may answer the revocation; the signal clears
// as soon as enough have.  One atomic load: safe points poll it freely.
func (pl *Platform) Revoked() bool { return pl.idle.Load() < 0 }

// Idle reports whether a slot of the allowance is unused, i.e. whether
// an Acquire made now could succeed — the one atomic load a scheduler
// pays to learn that an enqueue needs no proc started for it.
func (pl *Platform) Idle() bool { return pl.idle.Load() > 0 }

// Stats returns a merged snapshot of the platform counters.  The read
// is lock-free — per-shard atomic loads, never the platform mutex — so
// sampling stats mid-benchmark cannot perturb Acquire/Release timing.
func (pl *Platform) Stats() Stats {
	return Stats{
		Created:  int(pl.m.created.Value()),
		Acquired: int(pl.m.acquired.Value()),
		Reused:   int(pl.m.reused.Value()),
		Refused:  int(pl.m.refused.Value()),
		Released: int(pl.m.released.Value()),
	}
}

// Metrics exposes the platform's registry so harnesses can fold proc
// counters into a unified snapshot.
func (pl *Platform) Metrics() *metrics.Registry { return pl.reg }

// SetTracer attaches an event tracer.  Call before Run.
//
// Ring discipline (trace rings are single-writer): acquire is emitted on
// the acquired proc's ring by the acquirer, which owns the token
// exclusively between popping it from the free list and handing it to
// cont.Start; release is emitted by the releasing holder before the
// token re-enters the free list; a refused acquire is emitted on the
// *calling* proc's ring (there is no affected proc), and not at all when
// Acquire is called from outside the platform.
func (pl *Platform) SetTracer(t *trace.Tracer) {
	pl.tracer = t
	if t != nil {
		pl.evAcquire = t.Define("proc.acquire")
		pl.evRelease = t.Define("proc.release")
		pl.evRefuse = t.Define("proc.refuse")
	}
}

// Acquire starts a new proc executing the continuation in ps, with ps.Datum
// as its per-proc datum (paper: acquire_proc).  It returns ErrNoMoreProcs
// when the proc limit is reached, which clients typically handle by
// enqueueing the continuation on a ready queue instead (Fig. 3).  The
// refusal — the common outcome once procs saturate — is answered from
// the idle word without the platform mutex.  Any goroutine may call it:
// a proc of this platform, a proc of another, or none at all; once the
// platform has quiesced every call is refused.
func (pl *Platform) Acquire(ps PS) error {
	if ps.K == nil {
		panic("proc: Acquire with nil continuation")
	}
	p, err := pl.acquire(ps.Datum)
	if err == nil {
		cont.Start(ps.K, cont.Unit{}, p)
	}
	return err
}

// AcquireFunc is Acquire for a continuation that is plain code rather
// than a captured stack: the new proc executes f, which ends as every
// proc's code does — in a throw, a Release, or a return once it has
// handed its proc on or given it up (a scheduler's Dispatch).  A thread
// package starts a proc on its dispatch loop this way when work is
// queued and a slot is idle but no thread is at hand to be continued.
func (pl *Platform) AcquireFunc(f func(), datum any) error {
	p, err := pl.acquire(datum)
	if err == nil {
		cont.Go(p, f)
	}
	return err
}

// acquire takes a token for a new holder and accounts it.
func (pl *Platform) acquire(datum any) (*Proc, error) {
	if pl.idle.Load() <= 0 {
		pl.refuse()
		return nil, ErrNoMoreProcs
	}
	pl.mu.Lock()
	p, reused := pl.claim()
	pl.mu.Unlock()
	if p == nil {
		pl.refuse() // lost the slot between the load and the lock
		return nil, ErrNoMoreProcs
	}
	pl.adopt(p, reused, datum)
	return p, nil
}

// claim takes a token out of the pool if the allowance has room; call
// with mu held.  held() < limit ≤ max means that when the free list is
// empty created < max, so a fresh id is always in range.
func (pl *Platform) claim() (p *Proc, reused bool) {
	if pl.quiet == nil || pl.held() >= pl.limit {
		return nil, false
	}
	if n := len(pl.free); n > 0 {
		p, reused = pl.free[n-1], true
		pl.free = pl.free[:n-1]
	} else {
		p = &Proc{id: pl.created, pl: pl}
		pl.created++
	}
	p.released = false
	pl.syncIdle()
	return p, reused
}

// adopt accounts a freshly claimed token to its new holder.  Emitting
// on ring p.id from the claimer's goroutine is race-free: the previous
// holder's release emit happens-before the free-list append (see
// leave), the claim orders it before this write under pl.mu, and the
// goroutine hand-off that follows (cont.Start, cont.Go, or the claimer
// itself becoming the holder) orders this write before anything the
// proc emits.  One writer at a time.
func (pl *Platform) adopt(p *Proc, reused bool, datum any) {
	if reused {
		pl.m.reused.Inc(p.id)
	} else {
		pl.m.created.Inc(p.id)
	}
	pl.m.acquired.Inc(p.id)
	pl.tracer.Emit(p.id, pl.evAcquire, int64(p.id))
	p.datum = datum
}

// refuse accounts a failed Acquire on the calling proc's shard and ring.
// Refusal is the common Fork path once procs saturate, so hard-coding
// shard 0 here would bounce one cache line across every forking proc —
// exactly the contention the sharded registry exists to avoid.  A caller
// that is not one of this platform's procs still spreads over the
// counter's shards (the index is masked) but never touches the trace
// rings, which are single-writer per proc of *this* platform.
func (pl *Platform) refuse() {
	p, _ := current()
	if p == nil {
		pl.m.refused.Inc(0)
		return
	}
	pl.m.refused.Inc(p.id)
	if p.pl == pl {
		pl.tracer.Emit(p.id, pl.evRefuse, 0)
	}
}

// current returns the proc held by the calling goroutine, or nil when it
// holds none; foreign reports a baton that is not a proc at all.
func current() (p *Proc, foreign any) {
	v, ok := gls.Get()
	if !ok {
		return nil, nil
	}
	if p, ok = v.(*Proc); ok {
		return p, nil
	}
	return nil, v
}

// Release stops the calling proc and returns it to the pool (paper:
// release_proc, of ML type unit -> 'a).  It never returns; the calling
// goroutine is unwound.  Clients wishing to save their execution state
// first capture a continuation with Callcc.
func (pl *Platform) Release() {
	pl.release(Current())
	cont.Exit()
}

// release is idempotent so that the root wrapper's release cannot
// double-free a proc the root function already released.
func (pl *Platform) release(p *Proc) {
	pl.mu.Lock()
	if !p.released {
		pl.leave(p)
	}
	pl.mu.Unlock()
}

// leave returns p's token to the pool and, when it was the last one out
// with no holder blocked, ends Run; call with mu held.  The release
// event is emitted before the token re-enters the free list: once the
// append publishes it a concurrent claim may hand the token — and ring
// p.id, which is single-writer — to its next holder.
func (pl *Platform) leave(p *Proc) {
	p.released = true
	p.datum = nil
	pl.m.released.Inc(p.id)
	pl.tracer.Emit(p.id, pl.evRelease, int64(p.id))
	pl.free = append(pl.free, p)
	pl.syncIdle()
	pl.settle()
}

// settle ends Run once nothing holds a token and nothing is blocked;
// call with mu held.  From then on the platform refuses every Acquire.
func (pl *Platform) settle() {
	if pl.quiet != nil && pl.held() == 0 && pl.blocked == 0 {
		close(pl.quiet)
		pl.quiet = nil
		pl.syncIdle()
	}
}

// ReleaseIfRevoked is the revocation safe point (§3.1) as one decision:
// under the platform mutex, release p exactly when more tokens are out
// than the allowance permits, and report whether it did.  Two procs
// reaching safe points together therefore cannot both answer a
// revocation of one, and since the allowance is at least one the last
// running proc never leaves this way.  p must be the caller's proc.
// After a releasing return the caller holds no proc — its baton is
// cleared, so a Callcc body it returns from is not thrown for — and,
// like a scheduler's Dispatch, it must return to its carrier.
func (pl *Platform) ReleaseIfRevoked(p *Proc) bool {
	if pl.idle.Load() >= 0 {
		return false
	}
	pl.mu.Lock()
	over := pl.held() > pl.limit
	if over {
		pl.leave(p)
	}
	pl.mu.Unlock()
	if over {
		gls.Del()
	}
	return over
}

// ReleaseUnless is release_proc for a scheduler whose ready queue came
// up empty: release p, and report true, unless pending reports that
// work has been queued after all, in which case it reports false and the
// caller dispatches again.  A releasing return leaves the caller as
// ReleaseIfRevoked's does.  pending runs under the platform mutex with
// the slot already published as idle, which closes the race with an
// enqueue from outside (Idle, then Acquire): either pending sees that
// enqueue, or the enqueuer sees the idle slot and blocks on the mutex
// until this release is complete.  Hence Run returns exactly when all
// procs have quiesced (§3.1) — the last one never leaves queued work
// behind.  pending must only take leaf locks.  p must be the caller's.
func (pl *Platform) ReleaseUnless(p *Proc, pending func() bool) bool {
	pl.mu.Lock()
	pl.idle.Add(1)
	if pending() {
		pl.idle.Add(-1)
		pl.mu.Unlock()
		return false
	}
	pl.leave(p)
	pl.mu.Unlock()
	gls.Del()
	return true
}

// Block is release_proc for a holder that is coming back: the calling
// proc's token returns to the pool for the length of a blocking OS call
// (a proc blocked in the kernel is not a processor anyone can use), but
// Run keeps waiting for the caller.  Until Unblock the goroutine holds
// no proc and must make no MP call.
func (pl *Platform) Block() {
	p := Current()
	pl.m.blocking.Inc(p.id)
	pl.mu.Lock()
	pl.blocked++
	pl.leave(p)
	pl.mu.Unlock()
	gls.Del()
}

// Unblock ends a Block.  If the allowance has room the caller becomes a
// proc again, with datum as its datum, and Unblock reports true.  If
// every slot was taken meanwhile it reports false and the caller is
// still counted as blocked: it queues itself with its scheduler as any
// ready thread would, and then calls Requeued.
func (pl *Platform) Unblock(datum any) bool {
	pl.mu.Lock()
	p, reused := pl.claim()
	if p != nil {
		pl.blocked--
	}
	pl.mu.Unlock()
	if p == nil {
		pl.m.refused.Inc(0)
		return false
	}
	pl.adopt(p, reused, datum)
	gls.Set(p)
	return true
}

// Requeued retires the blocked count of a caller Unblock turned away,
// once it is safely on its scheduler's ready queue.
func (pl *Platform) Requeued() {
	pl.mu.Lock()
	pl.blocked--
	pl.settle()
	pl.mu.Unlock()
}

// Current returns the proc held by the calling goroutine.
func Current() *Proc {
	p, foreign := current()
	if foreign != nil {
		panic(fmt.Sprintf("mp: foreign baton %T on this goroutine", foreign))
	}
	if p == nil {
		panic("mp: operation outside Platform.Run")
	}
	return p
}

// GetDatum returns the calling proc's private datum (paper: get_datum).
func GetDatum() any { return Current().datum }

// SetDatum overwrites the calling proc's private datum (paper: set_datum).
func SetDatum(d any) { Current().datum = d }

// Self returns the calling proc's id; a convenience beyond the paper's
// interface, used by the evaluation harness and the distributed scheduler.
func Self() int { return Current().id }

// TrySelf returns the calling proc's id, or (0, false) when the calling
// goroutine holds no proc — code running outside Platform.Run, such as a
// host bootstrap goroutine.  Callers use it to pick a sharded-structure
// slot without requiring the MP world.
func TrySelf() (int, bool) {
	if p, _ := current(); p != nil {
		return p.id, true
	}
	return 0, false
}

// Holds reports whether the calling goroutine holds one of this
// platform's procs — false for another platform's proc, a goroutine
// inside Block, or one outside the MP world altogether.
func (pl *Platform) Holds() bool {
	p, _ := current()
	return p != nil && p.pl == pl
}

// Run bootstraps the root proc executing root with the given initial
// datum (paper: initial_datum) and blocks until the platform quiesces —
// i.e. until every proc, including the root, has been released.  If root
// returns normally, the proc it is then holding, if any, is released
// implicitly; a root that handed its proc on (a scheduler's Dispatch)
// returns holding none.
func (pl *Platform) Run(root func(), initialDatum any) {
	if !pl.inRun.CompareAndSwap(false, true) {
		panic("proc: Platform.Run is not reentrant")
	}
	defer pl.inRun.Store(false)

	// A quiesced platform may Run again: the pool is rebuilt from scratch.
	quiet := make(chan struct{})
	p := &Proc{id: 0, pl: pl}
	pl.mu.Lock()
	pl.free = pl.free[:0]
	pl.created = 1
	pl.blocked = 0
	pl.quiet = quiet
	pl.syncIdle()
	pl.mu.Unlock()
	pl.m.created.Inc(0)
	pl.m.acquired.Inc(0)
	pl.tracer.Emit(0, pl.evAcquire, 0)
	p.datum = initialDatum

	cont.Go(p, func() {
		root()
		// Release the proc held at return time: the root goroutine may
		// have migrated to a different token since it started.
		if pl.Holds() {
			pl.release(Current())
		}
	})
	<-quiet
}
