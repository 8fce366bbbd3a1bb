package pubsub

// QoS unit tests: claim ordering under the virtual-time fair-share
// policy (deterministic — claim is plain code under a lock), the rejoin
// catch-up rule, and the live delivery world acking jobs and evicting
// slow consumers.  Hosting goroutines are fine in tests.

import (
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/threads"
)

// bareBroker builds a broker with no server attached — enough for the
// delivery world and the tenant table.
func bareBroker(opts Options) *Broker {
	pl := proc.New(1)
	sys := threads.New(pl, threads.Options{})
	return New(sys, cml.NewClock(), metrics.NewRegistry(1), opts)
}

func (b *Broker) testTenant(name string) *tenant {
	b.state.Lock()
	t := b.tenantLocked(name)
	b.state.Unlock()
	return t
}

func mkJob(t *tenant, frame string, nsubs, depth int) *fanJob {
	subs := make([]*Sub, nsubs)
	for i := range subs {
		subs[i] = &Sub{id: int64(i), tenant: t, st: newSubStream(depth)}
	}
	j := &fanJob{frame: []byte(frame), subs: subs, done: &gate{}, tenant: t}
	j.left.Store(int64(nsubs))
	return j
}

// TestClaimFairSharePrefersLaggingTenant: once the noisy tenant has
// accrued virtual time for a quantum, the quiet tenant's queue is
// claimed next even though the noisy one enqueued first and still has
// a backlog.
func TestClaimFairSharePrefersLaggingTenant(t *testing.T) {
	b := bareBroker(Options{DeliveryBatch: 4})
	d := b.dw
	noisy := b.testTenant("noisy")
	quiet := b.testTenant("quiet")

	big := string(make([]byte, 4096))
	for i := 0; i < 3; i++ {
		d.enqueue(noisy, mkJob(noisy, big, 4, 8))
	}
	d.enqueue(quiet, mkJob(quiet, "small", 2, 8))

	var order []string
	for {
		j, _, n, _ := d.claim()
		if j == nil {
			break
		}
		order = append(order, j.tenant.name)
		_ = n
	}
	if len(order) < 4 {
		t.Fatalf("claims = %v, expected every job claimed", order)
	}
	if order[0] != "noisy" {
		t.Fatalf("claims = %v: the first quantum goes to the first-enqueued tenant", order)
	}
	if order[1] != "quiet" {
		t.Fatalf("claims = %v: after one expensive noisy quantum the quiet tenant must overtake", order)
	}
	for _, rest := range order[2:] {
		if rest != "noisy" {
			t.Fatalf("claims = %v: only noisy work remains after quiet drains", order)
		}
	}
	if noisy.vtime <= quiet.vtime {
		t.Errorf("vtime noisy=%.1f quiet=%.1f: expensive fan-out must accrue faster", noisy.vtime, quiet.vtime)
	}
}

// TestClaimChargesByFrameSize: same subscriber count, bigger frame —
// more virtual time, so big-payload tenants sink in the queue.
func TestClaimChargesByFrameSize(t *testing.T) {
	b := bareBroker(Options{DeliveryBatch: 8})
	d := b.dw
	big := b.testTenant("big")
	small := b.testTenant("small")
	d.enqueue(big, mkJob(big, string(make([]byte, 8192)), 2, 4))
	d.enqueue(small, mkJob(small, "x", 2, 4))
	for {
		j, _, _, _ := d.claim()
		if j == nil {
			break
		}
	}
	if big.vtime <= small.vtime {
		t.Errorf("vtime big=%.1f small=%.1f: frame size must weight the charge", big.vtime, small.vtime)
	}
}

// TestEnqueueRejoinCatchesUpToMin: a tenant re-entering after idling
// starts at the current active minimum — fair share from now on, not an
// unbounded deficit claim.
func TestEnqueueRejoinCatchesUpToMin(t *testing.T) {
	b := bareBroker(Options{})
	d := b.dw
	vet := b.testTenant("veteran")
	vet.vtime = 500
	d.enqueue(vet, mkJob(vet, "x", 1, 4))
	late := b.testTenant("latecomer")
	d.enqueue(late, mkJob(late, "y", 1, 4))
	if late.vtime != 500 {
		t.Fatalf("latecomer vtime = %.1f, want caught up to the active min 500", late.vtime)
	}
}

// TestDeliveryWorldAcksAndEvictsSlow runs the real dispatcher threads:
// a job is acked only once every subscriber slot settles, a full ring
// evicts its slow consumer (counted), and the world exits clean on stop.
func TestDeliveryWorldAcksAndEvictsSlow(t *testing.T) {
	b := bareBroker(Options{Tick: 100 * time.Microsecond})
	d := b.dw
	done := make(chan struct{})
	go func() {
		b.Runner()()
		close(done)
	}()

	tn := b.testTenant("t")
	j := mkJob(tn, "payload", 3, 4)
	// Pre-jam subscriber 2's ring so the push overflows and evicts it.
	slow := j.subs[2].st
	for slow.push([]byte("jam"), 0) == pushOK {
	}
	d.enqueue(tn, j)

	deadline := time.Now().Add(10 * time.Second)
	for j.done.v.Load() == gatePending {
		if time.Now().After(deadline) {
			t.Fatal("fan-out never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if got := j.done.v.Load(); got != gateOK {
		t.Fatalf("gate = %d, want gateOK", got)
	}
	for i := 0; i < 2; i++ {
		if data, ok, _ := j.subs[i].st.Pull(); !ok || string(data) != "payload" {
			t.Fatalf("sub %d: frame = %q ok=%v", i, data, ok)
		}
	}
	if !slow.dead() {
		t.Error("overflowed subscriber was not evicted")
	}
	if got := b.m.droppedSlow.Value(); got != 1 {
		t.Errorf("dropped_slow = %d, want 1", got)
	}
	if got := b.m.delivered.Value(); got != 2 {
		t.Errorf("delivered = %d, want 2", got)
	}
	if p := d.pending.Load(); p != 0 {
		t.Errorf("pending = %d after settle, want 0", p)
	}

	d.halt()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("delivery world did not exit after stop")
	}
}
