package pubsub

// Multi-tenant QoS: two mechanisms, both cheap where they must be.
//
// Admission is a per-tenant token bucket charged on /publish under the
// broker's state lock (already held for topic lookup): past the burst
// the publisher gets 429 + Retry-After instead of a queue slot, so one
// tenant's publish storm cannot occupy the broker at all.
//
// Delivery dispatch is fair-share over a threads.System queued by
// NewPrioQueue — the paper's priority-queue footnote made load-bearing.
// Each tenant accrues virtual time as its frames are delivered (weighted
// by fan-out and frame size); dispatcher threads always claim a quantum
// from the active tenant with the smallest virtual time, then YieldAt a
// priority equal to that tenant's normalized virtual time.  A tenant
// whose fan-out is expensive therefore sinks in the priority queue and
// the quiet tenant's deliveries overtake it — starvation-free because
// virtual time is monotone and a re-joining tenant is caught up to the
// current minimum rather than allowed to claim an unbounded deficit.
//
// Discipline the dispatchers obey everywhere: the delivery lock is
// never held across a Yield or a stream push, so a preempted dispatcher
// can never make the lock's holder unschedulable below a spinning
// claimant — the classic inversion the prio tests pin.

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/threads"
)

// tenant is one tenant's QoS state.  The admission fields (tokens,
// refillAt) are guarded by the broker state lock; the dispatch fields
// (vtime, q) by the delivery world's lock.  The counters are sharded
// and lock-free.
type tenant struct {
	name string

	tokens   float64
	refillAt int64

	vtime float64
	q     []*fanJob

	published *metrics.Counter
	delivered *metrics.Counter
}

// fanJob is one acked-pending publish fanned out to a snapshot of the
// topic's subscribers.  cursor is guarded by the delivery lock; left
// counts undelivered subscribers and the transition to zero — made
// outside the lock by whichever dispatcher finishes last — acks the
// publish.
type fanJob struct {
	frame   []byte
	subs    []*Sub
	cursor  int
	left    atomic.Int64
	pubTick int64
	done    *gate
	tenant  *tenant
}

// deliveryWorld is the broker's second scheduling world: its own
// platform under a priority-queued System, running DeliveryThreads
// dispatchers.  Keeping delivery off the broker's serving system means a
// fan-out burst contends for delivery procs, not for the procs parsing
// requests — QoS between tenants, isolation between subsystems.
type deliveryWorld struct {
	b  *Broker
	pl *proc.Platform
	ps *threads.System

	lock    core.Lock
	active  []*tenant // invariant: t ∈ active ⇔ len(t.q) > 0
	pending atomic.Int64
	stop    atomic.Bool
	// wake is what an idle dispatcher blocks on, holding no proc: enqueue
	// and halt signal it from the publishers' world.  All dispatchers
	// share it — one signal wakes one of them, and a woken dispatcher
	// claims until nothing is left, so coalesced signals strand no job.
	wake *threads.Wake

	threads int
	batch   int
}

// idlePrio parks idle dispatchers at the bottom of the priority queue
// so a freshly-charged tenant's quantum always runs first.
const idlePrio = 1 << 30

func newDeliveryWorld(b *Broker, procs, threadN, batch int) *deliveryWorld {
	return &deliveryWorld{
		b:       b,
		pl:      proc.New(procs),
		lock:    core.NewMutexLock(),
		wake:    threads.NewWake(),
		threads: threadN,
		batch:   batch,
	}
}

// run is the host entry point (Broker.Runner): bootstrap the priority
// system with the dispatchers and block until they all exit after stop.
func (d *deliveryWorld) run() {
	d.ps = threads.New(d.pl, threads.Options{NewQueue: threads.NewPrioQueue})
	d.ps.Run(func() {
		for i := 1; i < d.threads; i++ {
			d.ps.Fork(d.dispatcher)
		}
		d.dispatcher()
	})
}

// enqueue adds a fan-out job to its tenant's queue.  pending is
// incremented before the job is visible so the janitor's drain check
// (topicsLive == 0 && pending == 0) can never observe the gap.
func (d *deliveryWorld) enqueue(t *tenant, j *fanJob) {
	d.pending.Add(1)
	d.lock.Lock()
	if len(t.q) == 0 {
		// A tenant re-entering after idling starts at the current
		// minimum virtual time: fair share from now on, not an unbounded
		// catch-up burst against tenants that kept publishing.
		if min, ok := d.minVtimeLocked(); ok && t.vtime < min {
			t.vtime = min
		}
		d.active = append(d.active, t)
	}
	t.q = append(t.q, j)
	d.lock.Unlock()
	d.wake.Signal()
}

// halt flags the world stopped and wakes an idle dispatcher to see it;
// each dispatcher passes the signal on as it exits.
func (d *deliveryWorld) halt() {
	d.stop.Store(true)
	d.wake.Signal()
}

// minVtimeLocked returns the smallest virtual time among active
// tenants; call with the delivery lock held.
func (d *deliveryWorld) minVtimeLocked() (float64, bool) {
	if len(d.active) == 0 {
		return 0, false
	}
	min := d.active[0].vtime
	for _, t := range d.active[1:] {
		if t.vtime < min {
			min = t.vtime
		}
	}
	return min, true
}

// claim picks the active tenant with the smallest virtual time and
// takes up to batch subscriber slots from its head job, charging the
// tenant's virtual time for the quantum up front.  Delivery happens
// outside the lock.  prio is the claiming dispatcher's next yield
// priority: the tenant's post-charge virtual time normalized against
// the active minimum, so dispatchers working for a lagging tenant
// outrank those working for a gorging one.
func (d *deliveryWorld) claim() (j *fanJob, start, n, prio int) {
	d.lock.Lock()
	var t *tenant
	ti := -1
	for i, c := range d.active {
		if t == nil || c.vtime < t.vtime {
			t, ti = c, i
		}
	}
	if t == nil {
		d.lock.Unlock()
		return nil, 0, 0, 0
	}
	j = t.q[0]
	start = j.cursor
	n = len(j.subs) - start
	if n > d.batch {
		n = d.batch
	}
	j.cursor += n
	if j.cursor == len(j.subs) {
		copy(t.q, t.q[1:])
		t.q[len(t.q)-1] = nil
		t.q = t.q[:len(t.q)-1]
		if len(t.q) == 0 {
			d.active[ti] = d.active[len(d.active)-1]
			d.active[len(d.active)-1] = nil
			d.active = d.active[:len(d.active)-1]
		}
	}
	// One virtual-time unit per subscriber push, weighted by frame size
	// so large payloads don't ride free.
	t.vtime += float64(n) * (1 + float64(len(j.frame))/1024)
	min, _ := d.minVtimeLocked()
	prio = int(t.vtime - min)
	if prio < 0 {
		prio = 0
	}
	d.lock.Unlock()
	return j, start, n, prio
}

// dispatcher is one delivery thread: claim a quantum from the
// fairest-behind tenant, push it into subscriber rings (lock NOT held),
// yield at the tenant's normalized virtual time, repeat.  With nothing
// to claim it blocks on the world's wake until an enqueue or halt
// signals it.  Exit: stop flagged and nothing pending.
func (d *deliveryWorld) dispatcher() {
	for {
		j, start, n, prio := d.claim()
		if j == nil {
			switch {
			case !d.stop.Load():
				d.ps.Await(d.wake)
			case d.pending.Load() == 0:
				d.wake.Signal() // pass the halt on to the next idle dispatcher
				return
			default:
				// Stopped, with the last quanta in other dispatchers' hands.
				d.ps.YieldAt(idlePrio)
			}
			continue
		}
		self := proc.Self()
		delivered := int64(0)
		for i := start; i < start+n; i++ {
			sub := j.subs[i]
			switch sub.st.push(j.frame, j.pubTick) {
			case pushOK:
				delivered++
			case pushFull:
				// Slow subscriber: evict rather than let its backlog
				// stall the tenant's other subscribers or the publisher's
				// ack.  The topic thread prunes it at the next tick.
				sub.st.Cancel()
				d.b.m.droppedSlow.Inc(self)
			case pushGone:
				// Dead or departed subscriber; nothing owed.
			}
		}
		if delivered > 0 {
			d.b.m.delivered.Add(self, delivered)
			j.tenant.delivered.Add(self, delivered)
			d.b.m.deliveryLag.Observe(self, d.b.clock.Now()-j.pubTick)
		}
		if j.left.Add(-int64(n)) == 0 {
			// Every subscriber slot of this publish is settled: frames
			// are in the rings (or their owners evicted) — ack.
			j.done.set(gateOK)
			d.pending.Add(-1)
		}
		d.ps.YieldAt(prio)
	}
}
