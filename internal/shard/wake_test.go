package shard

// Tests for the fabric's two cross-world event waits and what depends
// on them: the ring wake (a push's kick against the intake's
// look-then-Await) must never lose a wake-up, and drain, shard release
// and stealing must all reach an intake that is blocked — not polling —
// when they happen.  Nothing here
// is gated on a sleep; each test waits on the state it is about.

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRingWakeNoLostWakeups hammers the ring's wake protocol with the
// real code on both sides: pushers (plain goroutines, as foreign to the
// backend's world as front threads are) push jobs and kick; a consumer
// thread of the backend's own system pops and, when the ring is empty,
// awaits the backend's wake exactly as the intake does.  Randomised
// gaps let the consumer go idle between pushes again and again, so
// pushes land at every point between its look and its wait.
//
// Two phases, 10^5 hand-offs in all.  In the first a single pusher
// waits for each job to be popped before pushing the next: no later
// push can paper over a lost wake-up, so losing one deadlocks the pair
// and the phase fails by deadline.  In the second, eight free-running
// pushers race each other for the idle flag, so concurrent wakers and
// stale signals are exercised too.
func TestRingWakeNoLostWakeups(t *testing.T) {
	const solo, pushers, perPusher = 40_000, 8, 7_500
	const total = solo + pushers*perPusher
	fab, err := New(Options{Addr: "127.0.0.1:0", Shards: 1, StealMin: NoSteal, RingDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.ln.Close()
	b := fab.backends[0]
	mem := fab.mem.Load()

	var popped, idles atomic.Int64
	var stop atomic.Bool
	seen := make([]atomic.Bool, total) // a job's identity rides in its remaining field
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		b.sys.Run(func() {
			dst := make([]job, 16)
			for !stop.Load() {
				n := b.ring.popN(dst)
				if n == 0 {
					idles.Add(1)
					b.sys.Await(b.wake)
				}
				for i := 0; i < n; i++ {
					if seen[dst[i].remaining].Swap(true) {
						t.Errorf("job %d popped twice", dst[i].remaining)
					}
					dst[i] = job{}
				}
				popped.Add(int64(n))
			}
		})
	}()
	defer func() {
		stop.Store(true)
		b.wake.Signal()
		<-consumerDone
	}()
	push := func(id int, rng *rand.Rand) {
		one := []job{{remaining: int64(id)}}
		for b.ring.pushN(one) == 0 {
			runtime.Gosched() // ring full: the consumer is awake by construction
		}
		fab.kick(b, mem)
		for g := rng.Intn(4); g > 0; g-- {
			runtime.Gosched()
		}
	}
	await := func(n int64, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for popped.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%s: popped %d of %d pushed, ring depth %d, signal pending=%v — a wake-up was lost",
					what, popped.Load(), n, b.ring.depth(), b.wake.Pending())
			}
			runtime.Gosched()
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < solo; i++ {
		push(i, rng)
		await(int64(i+1), "solo hand-off")
	}
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 2))
			for i := 0; i < perPusher; i++ {
				push(solo+p*perPusher+i, rng)
			}
		}(p)
	}
	wg.Wait()
	await(total, "free-running pushers")
	if idles.Load() < solo/2 {
		t.Errorf("the consumer went idle only %d times in %d hand-offs: the wake path was barely exercised",
			idles.Load(), total)
	}
	t.Logf("%d jobs over %d idle passes", popped.Load(), idles.Load())
}

// intakesBlocked spins until every active member's procs are all
// released with its ring empty and no signal pending: no thread of the
// member is running or about to — the intake is blocked on its wake —
// which is the state an idle fabric must settle in now that nothing
// polls.
func intakesBlocked(t *testing.T, fab *Fabric) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		blocked := true
		for _, b := range fab.mem.Load().shards {
			if b.pl.Live() != 0 || b.ring.depth() != 0 || b.wake.Pending() {
				blocked = false
			}
		}
		if blocked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("an idle fabric's intakes did not all block with their procs released")
		}
		runtime.Gosched()
	}
}

// TestIdleFabricHoldsNoProcsAndPollsNothing: with no traffic, every
// world's threads are blocked or parked; across 50 ticks of the front
// clock no thread of any world yields, and the backends' procs are all
// back in their pools.
func TestIdleFabricHoldsNoProcsAndPollsNothing(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2, RebalanceTicks: NoRebalance}, nil)
	intakesBlocked(t, tf.fab)
	yields := func() (n int64) {
		n = tf.fab.FrontMetrics().Snapshot().Get("threads.yields")
		for _, b := range tf.fab.mem.Load().shards {
			n += b.sys.Metrics().Snapshot().Get("threads.yields")
		}
		return n
	}
	y0, t0 := yields(), tf.fab.clock.Now()
	for tf.fab.clock.Now() < t0+50 {
		runtime.Gosched()
	}
	if y1 := yields(); y1 != y0 {
		t.Errorf("%d yields across 50 idle ticks: something is still polling", y1-y0)
	}
	intakesBlocked(t, tf.fab)
}

// TestDrainReachesBlockedIntakes: the drain cascade must complete when
// it begins with every intake blocked on an empty ring — the wake comes
// from the shard's OnDrain hook, not from a clock the intake no longer
// watches.
func TestDrainReachesBlockedIntakes(t *testing.T) {
	tf := startFabric(t, Options{Shards: 3, RebalanceTicks: NoRebalance}, nil)
	intakesBlocked(t, tf.fab)
	tf.drainAndWait(t)
}

// TestRemoveShardReachesBlockedIntake: releasing a member whose intake
// is blocked must complete — ring close, server drain (whose hook wakes
// the intake), worlds exit — and the survivor keeps serving.
func TestRemoveShardReachesBlockedIntake(t *testing.T) {
	var wg sync.WaitGroup
	t.Cleanup(func() { wg.Wait() })
	tf := startFabric(t, Options{
		Shards: 2, RebalanceTicks: NoRebalance,
		Spawn: func(r func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r()
			}()
		},
	}, nil)
	intakesBlocked(t, tf.fab)
	victim := tf.fab.mem.Load().shards[1]
	if err := tf.fab.ScaleTo(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for victim.phase.Load() != phaseGone {
		if time.Now().After(deadline) {
			t.Fatalf("member %d stuck in phase %s, %d procs live",
				victim.id, phaseName(victim.phase.Load()), victim.pl.Live())
		}
		runtime.Gosched()
	}
	kc := dialKA(t, tf.addr())
	defer kc.nc.Close()
	if err := kc.send("/echo?msg=survivor"); err != nil {
		t.Fatal(err)
	}
	if st, body, err := kc.recv(10 * time.Second); err != nil || st != 200 || !bytes.Contains(body, []byte("survivor")) {
		t.Fatalf("after the release: status %d body %q err %v", st, body, err)
	}
}

// TestKickSignalsSiblingsOnlyWhenWorthStealing pins the half of kick the
// steal test depends on: a push that leaves a ring at StealMin or more
// signals the siblings even though nothing was pushed to them, and one
// that leaves it below does not.
func TestKickSignalsSiblingsOnlyWhenWorthStealing(t *testing.T) {
	fab, err := New(Options{Addr: "127.0.0.1:0", Shards: 2, StealMin: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.ln.Close()
	owner, sibling := fab.backends[0], fab.backends[1]
	mem := fab.mem.Load()

	owner.ring.pushN([]job{{req: &serve.Request{}}})
	fab.kick(owner, mem)
	if !owner.wake.Pending() {
		t.Error("a push did not signal its own ring's intake")
	}
	if sibling.wake.Pending() {
		t.Error("a ring below StealMin signalled a sibling: there is nothing worth stealing")
	}
	owner.ring.pushN([]job{{req: &serve.Request{}}})
	fab.kick(owner, mem)
	if !sibling.wake.Pending() {
		t.Error("a ring at StealMin did not signal the sibling that could steal from it")
	}
}
