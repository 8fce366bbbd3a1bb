package shard

// Fabric end-to-end tests.  Test files are the client side of the wire
// plus the host that runs each Runners entry in a goroutine — exactly
// the role cmd/mpserved plays — so raw goroutines and channels are fine
// here; the purity test scans only non-test sources.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// kaConn is a keep-alive test client framing responses by Content-Length.
type kaConn struct {
	nc  net.Conn
	acc []byte
}

func dialKA(t *testing.T, addr string) *kaConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &kaConn{nc: nc}
}

func (k *kaConn) send(path string, hdrs ...string) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n", path)
	for _, h := range hdrs {
		b.WriteString(h + "\r\n")
	}
	b.WriteString("\r\n")
	_, err := k.nc.Write(b.Bytes())
	return err
}

func (k *kaConn) recv(timeout time.Duration) (int, []byte, error) {
	deadline := time.Now().Add(timeout)
	buf := make([]byte, 4096)
	for {
		if head, rest, ok := bytes.Cut(k.acc, []byte("\r\n\r\n")); ok {
			lines := strings.Split(string(head), "\r\n")
			parts := strings.SplitN(lines[0], " ", 3)
			if len(parts) < 2 {
				return 0, nil, fmt.Errorf("bad status line %q", lines[0])
			}
			status, err := strconv.Atoi(parts[1])
			if err != nil {
				return 0, nil, err
			}
			clen := -1
			for _, ln := range lines[1:] {
				if kk, v, ok := strings.Cut(ln, ":"); ok &&
					strings.EqualFold(strings.TrimSpace(kk), "Content-Length") {
					clen, err = strconv.Atoi(strings.TrimSpace(v))
					if err != nil {
						return 0, nil, err
					}
				}
			}
			if clen < 0 {
				return 0, nil, fmt.Errorf("no Content-Length in %q", head)
			}
			for len(rest) < clen {
				k.nc.SetReadDeadline(deadline)
				n, err := k.nc.Read(buf)
				if n > 0 {
					rest = append(rest, buf[:n]...)
				} else if err != nil {
					return 0, nil, err
				}
			}
			k.acc = append([]byte(nil), rest[clen:]...)
			return status, append([]byte(nil), rest[:clen]...), nil
		}
		k.nc.SetReadDeadline(deadline)
		n, err := k.nc.Read(buf)
		if n > 0 {
			k.acc = append(k.acc, buf[:n]...)
		} else if err != nil {
			return 0, nil, err
		}
	}
}

type testFabric struct {
	fab  *Fabric
	done chan struct{}
}

func (tf *testFabric) addr() string { return tf.fab.Addr().String() }

// drainAndWait cascades the drain and blocks until every runner has
// returned; idempotent so tests may call it before the cleanup does.
func (tf *testFabric) drainAndWait(t *testing.T) {
	t.Helper()
	tf.fab.Drain()
	select {
	case <-tf.done:
	case <-time.After(60 * time.Second):
		t.Fatal("fabric did not quiesce after drain")
	}
}

// startFabric hosts a fabric: each Runners entry in its own goroutine,
// health-checked through the front, drained at cleanup.
func startFabric(t *testing.T, opts Options, register func(*Fabric)) *testFabric {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	fab, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if register != nil {
		register(fab)
	}
	tf := &testFabric{fab: fab, done: make(chan struct{})}
	runners := fab.Runners()
	joined := make(chan struct{}, len(runners))
	for _, r := range runners {
		r := r
		go func() {
			r()
			joined <- struct{}{}
		}()
	}
	go func() {
		for range runners {
			<-joined
		}
		close(tf.done)
	}()
	healthy := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		kc, err := net.DialTimeout("tcp", tf.addr(), time.Second)
		if err == nil {
			c := &kaConn{nc: kc}
			if err := c.send("/healthz", "Connection: close"); err == nil {
				if st, _, err := c.recv(2 * time.Second); err == nil && st == 200 {
					healthy = true
				}
			}
			kc.Close()
		}
		if healthy {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !healthy {
		t.Fatal("fabric did not become healthy")
	}
	t.Cleanup(func() { tf.drainAndWait(t) })
	return tf
}

// parkHandler parks the handling thread ?ticks= shard-clock ticks.
func parkHandler(req *serve.Request) serve.Response {
	target := int64(req.QueryInt("ticks", 10))
	for elapsed := int64(0); elapsed < target; elapsed++ {
		if req.Expired() {
			return serve.Response{Status: 504, Body: []byte("cancelled\n")}
		}
		req.Park(1)
	}
	return serve.Response{Status: 200, Body: []byte("parked\n")}
}

func TestFabricKeepAliveEndToEnd(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2}, nil)
	base := tf.fab.FrontMetrics().Snapshot() // startup health checks count too
	kc := dialKA(t, tf.addr())
	const reqs = 6
	for i := 0; i < reqs; i++ {
		msg := fmt.Sprintf("m%d", i)
		if err := kc.send("/echo?msg=" + msg); err != nil {
			t.Fatal(err)
		}
		st, body, err := kc.recv(10 * time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if st != 200 || string(body) != msg {
			t.Fatalf("request %d: status %d body %q", i, st, body)
		}
	}
	snap := tf.fab.FrontMetrics().Snapshot()
	if got := snap.Get("shard.replies") - base.Get("shard.replies"); got < reqs {
		t.Errorf("shard.replies = %d, want >= %d", got, reqs)
	}
	var forwarded int64
	for i := 0; i < tf.fab.Shards(); i++ {
		name := fmt.Sprintf("shard.forwarded_%d", i)
		forwarded += snap.Get(name) - base.Get(name)
	}
	if forwarded < reqs {
		t.Errorf("total forwarded = %d, want >= %d", forwarded, reqs)
	}
	if got := snap.Get("shard.accepted") - base.Get("shard.accepted"); got != 1 {
		t.Errorf("shard.accepted = %d, want 1 (one keep-alive conn)", got)
	}
	// Uniform light load: sequential requests never leave two jobs in any
	// ring, so no shard ever qualifies as a steal victim — the claim
	// protocol must stay entirely quiet (no aborted-claim churn).
	if got := snap.Get("shard.steal_aborts"); got != 0 {
		t.Errorf("shard.steal_aborts = %d under uniform light load, want 0", got)
	}
}

func TestStickyRoutingByHeader(t *testing.T) {
	tf := startFabric(t, Options{Shards: 4}, nil)
	base := tf.fab.FrontMetrics().Snapshot()
	want := tf.fab.ownerOf("alpha")
	const reqs = 8
	for i := 0; i < reqs; i++ { // fresh conn each time: routing must follow the key, not the conn
		kc := dialKA(t, tf.addr())
		if err := kc.send("/healthz", "X-Shard-Key: alpha", "Connection: close"); err != nil {
			t.Fatal(err)
		}
		if st, _, err := kc.recv(10 * time.Second); err != nil || st != 200 {
			t.Fatalf("request %d: status %d err %v", i, st, err)
		}
		kc.nc.Close()
	}
	snap := tf.fab.FrontMetrics().Snapshot()
	name := fmt.Sprintf("shard.forwarded_%d", want)
	if got := snap.Get(name) - base.Get(name); got != reqs {
		t.Errorf("sticky shard %d forwarded = %d, want %d", want, got, reqs)
	}
	if got := snap.Get("shard.routed_sticky") - base.Get("shard.routed_sticky"); got != reqs {
		t.Errorf("shard.routed_sticky = %d, want %d", got, reqs)
	}
}

func TestChashRingStableAndCovering(t *testing.T) {
	r := newChashRing([]int{0, 1, 2, 3}, 64)
	hit := map[int]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		s := r.lookup(key)
		if s2 := r.lookup(key); s2 != s {
			t.Fatalf("lookup(%q) unstable: %d then %d", key, s, s2)
		}
		hit[s]++
	}
	for s := 0; s < 4; s++ {
		if hit[s] == 0 {
			t.Errorf("shard %d receives no keys", s)
		}
	}
}

// testRing is a spin-locked ring; push1 and pop1 are pushN and popN at
// batch size one, for tests that move jobs one at a time.
func testRing(depth int) *ring { return newRing(depth, core.NewMutexLock()) }

func push1(r *ring, j job) bool { return r.pushN([]job{j}) == 1 }

func pop1(r *ring) (job, bool) {
	var dst [1]job
	n := r.popN(dst[:])
	return dst[0], n == 1
}

func TestRingPushPopOrderAndBounds(t *testing.T) {
	r := testRing(3)
	for i := 0; i < 3; i++ {
		if !push1(r, job{remaining: int64(i)}) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if push1(r, job{}) {
		t.Error("push succeeded on a full ring")
	}
	if r.depth() != 3 {
		t.Errorf("depth = %d, want 3", r.depth())
	}
	for i := 0; i < 3; i++ {
		j, ok := pop1(r)
		if !ok || j.remaining != int64(i) {
			t.Fatalf("pop %d: ok=%v remaining=%d", i, ok, j.remaining)
		}
	}
	if _, ok := pop1(r); ok {
		t.Error("pop succeeded on an empty ring")
	}
}

// TestRingBatchPushPopWraparound drives pushN/popN across the buffer
// seam with a partial batch at capacity: pushN admits exactly the prefix
// that fits, popN drains in FIFO order across the wrap, and both are
// no-ops on empty inputs.
func TestRingBatchPushPopWraparound(t *testing.T) {
	r := testRing(4)
	// Advance head off zero so the batch ops must wrap.
	if !push1(r, job{remaining: 100}) || !push1(r, job{remaining: 101}) {
		t.Fatal("seed pushes refused below capacity")
	}
	if j, ok := pop1(r); !ok || j.remaining != 100 {
		t.Fatalf("seed pop: ok=%v remaining=%d, want 100", ok, j.remaining)
	}
	// head=1, count=1: four offered, three fit; the admitted jobs are a
	// prefix and the last slot wraps to index 0.
	in := []job{{remaining: 0}, {remaining: 1}, {remaining: 2}, {remaining: 3}}
	if n := r.pushN(in); n != 3 {
		t.Fatalf("pushN at capacity = %d, want 3 (admitted prefix)", n)
	}
	if got := r.depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	if n := r.pushN(in); n != 0 {
		t.Errorf("pushN on a full ring = %d, want 0", n)
	}
	if n := r.pushN(nil); n != 0 {
		t.Errorf("pushN(nil) = %d, want 0", n)
	}
	dst := make([]job, 8)
	n := r.popN(dst)
	if n != 4 {
		t.Fatalf("popN = %d, want 4", n)
	}
	for i, want := range []int64{101, 0, 1, 2} {
		if dst[i].remaining != want {
			t.Errorf("popN[%d].remaining = %d, want %d (FIFO across the seam)",
				i, dst[i].remaining, want)
		}
	}
	if n := r.popN(dst); n != 0 {
		t.Errorf("popN on an empty ring = %d, want 0", n)
	}
	if n := r.popN(nil); n != 0 {
		t.Errorf("popN(nil) = %d, want 0", n)
	}
	// A bounded dst takes a partial batch and leaves the rest queued.
	if n := r.pushN(in); n != 4 {
		t.Fatalf("refill pushN = %d, want 4", n)
	}
	if n := r.popN(dst[:3]); n != 3 {
		t.Fatalf("bounded popN = %d, want 3", n)
	}
	if j, ok := pop1(r); !ok || j.remaining != 3 {
		t.Errorf("leftover after bounded popN: ok=%v remaining=%d, want 3", ok, j.remaining)
	}
}

// TestRingStealClaimsOldestHalf pins the claim protocol's semantics: a
// steal takes the oldest half (rounded up) bounded by dst, leaves the
// newer jobs for the owner, returns 0 on an empty uncontended ring, and
// aborts with -1 — without blocking — when the lock is held.
func TestRingStealClaimsOldestHalf(t *testing.T) {
	r := testRing(8)
	for i := 0; i < 5; i++ {
		push1(r, job{remaining: int64(i)})
	}
	dst := make([]job, 8)
	if n := r.stealN(dst); n != 3 {
		t.Fatalf("stealN = %d, want 3 ((5+1)/2 oldest)", n)
	}
	for i := 0; i < 3; i++ {
		if dst[i].remaining != int64(i) {
			t.Errorf("stolen[%d].remaining = %d, want %d (oldest first)", i, dst[i].remaining, i)
		}
	}
	// The owner keeps the newest two, still in order.
	for _, want := range []int64{3, 4} {
		if j, ok := pop1(r); !ok || j.remaining != want {
			t.Fatalf("owner pop after steal: ok=%v remaining=%d, want %d", ok, j.remaining, want)
		}
	}
	if n := r.stealN(dst); n != 0 {
		t.Errorf("stealN on an empty ring = %d, want 0", n)
	}
	// dst bounds the claim below the half.
	for i := 0; i < 6; i++ {
		push1(r, job{remaining: int64(10 + i)})
	}
	if n := r.stealN(dst[:2]); n != 2 {
		t.Errorf("bounded stealN = %d, want 2", n)
	}
	// Contention: with the spinlock held, the thief must abort, not spin.
	r.lock.Lock()
	abortDone := make(chan int, 1)
	go func() { abortDone <- r.stealN(dst) }()
	select {
	case n := <-abortDone:
		if n != -1 {
			t.Errorf("stealN under contention = %d, want -1 (abort)", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("stealN blocked on a held lock; the claim must abort")
	}
	r.lock.Unlock()
}

// TestRingStealVsPopRace races the owner's batched popN against a
// thief's stealN (and a pushing producer) under -race: every job must be
// claimed by exactly one side, abort returns (-1) must never be counted
// as progress, and nothing may be lost or duplicated.
func TestRingStealVsPopRace(t *testing.T) {
	const total = 4000
	r := testRing(64)
	seen := make([]atomic.Int32, total)
	var got, aborts atomic.Int64
	go func() { // producer: front multi-pushes of up to 8
		batch := make([]job, 8)
		next := 0
		for next < total {
			n := 0
			for ; n < len(batch) && next+n < total; n++ {
				batch[n] = job{remaining: int64(next + n)}
			}
			pushed := r.pushN(batch[:n])
			next += pushed
			if pushed < n {
				runtime.Gosched()
			}
		}
	}()
	collect := func(dst []job, n int) {
		for i := 0; i < n; i++ {
			seen[dst[i].remaining].Add(1)
		}
		got.Add(int64(n))
	}
	go func() { // owner: batched dequeue
		dst := make([]job, 16)
		for got.Load() < total {
			if n := r.popN(dst); n > 0 {
				collect(dst, n)
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() { // thief: claim-or-abort
		dst := make([]job, 16)
		for got.Load() < total {
			switch n := r.stealN(dst); {
			case n > 0:
				collect(dst, n)
			case n < 0:
				aborts.Add(1)
				runtime.Gosched()
			default:
				runtime.Gosched()
			}
		}
	}()
	for deadline := time.Now().Add(30 * time.Second); got.Load() < total; {
		if time.Now().After(deadline) {
			t.Fatalf("claimed %d of %d jobs — work lost between popN and stealN", got.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("job %d claimed %d times, want exactly 1", i, n)
		}
	}
	t.Logf("steal-vs-pop race: %d jobs, %d thief aborts", total, aborts.Load())
}

// TestStealMovesQueuedWorkToIdleShard saturates one shard (one slot, one
// queue seat) with a pipelined batch of sticky-keyed parks: the excess
// backs up in its forward ring, where the idle sibling's intake must
// claim it — nonzero steal counters and every request still answered.
func TestStealMovesQueuedWorkToIdleShard(t *testing.T) {
	tf := startFabric(t, Options{
		Shards:         2,
		BackendProcs:   1,
		MaxInFlight:    1,
		QueueDepth:     1,
		RebalanceTicks: NoRebalance,
	}, func(fab *Fabric) { fab.Handle("/park", parkHandler) })
	// The thief starts out blocked on its wake, not polling for victims:
	// what reaches it is the hot shard's pusher kicking an idle sibling.
	intakesBlocked(t, tf.fab)
	base := tf.fab.FrontMetrics().Snapshot()

	const reqs = 12
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		kc := dialKA(t, tf.addr())
		var batch bytes.Buffer
		for i := 0; i < reqs; i++ {
			batch.WriteString("GET /park?ticks=20 HTTP/1.1\r\nHost: t\r\n" +
				"Content-Length: 0\r\nX-Shard-Key: hot\r\n\r\n")
		}
		if _, err := kc.nc.Write(batch.Bytes()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reqs; i++ {
			st, _, err := kc.recv(20 * time.Second)
			if err != nil {
				t.Fatalf("round %d response %d: %v", round, i, err)
			}
			if st != 200 {
				t.Fatalf("round %d response %d: status %d, want 200 (nothing sheds at this load)",
					round, i, st)
			}
		}
		kc.nc.Close()
		snap := tf.fab.FrontMetrics().Snapshot()
		if steals := snap.Get("shard.steals") - base.Get("shard.steals"); steals >= 1 {
			if stolen := snap.Get("shard.stolen") - base.Get("shard.stolen"); stolen < steals {
				t.Errorf("shard.stolen = %d with %d steals; every claim must move >= 1 job",
					stolen, steals)
			}
			if attempts := snap.Get("shard.steal_attempts") - base.Get("shard.steal_attempts"); attempts < steals {
				t.Errorf("shard.steal_attempts = %d < steals %d", attempts, steals)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no steal observed under forced saturation (attempts=%d aborts=%d)",
				snap.Get("shard.steal_attempts")-base.Get("shard.steal_attempts"),
				snap.Get("shard.steal_aborts")-base.Get("shard.steal_aborts"))
		}
	}
}

func TestPlanShift(t *testing.T) {
	cases := []struct {
		name        string
		loads, lims []int
		floor, cap  int
		slack       int
		from, to    int
		ok          bool
	}{
		{"balanced", []int{3, 3}, []int{2, 2}, 1, 4, 4, 0, 0, false},
		{"skew", []int{0, 9}, []int{2, 2}, 1, 4, 4, 0, 1, true},
		{"donor at floor", []int{0, 9}, []int{1, 3}, 1, 4, 4, 0, 0, false},
		{"recipient at cap", []int{0, 9}, []int{0, 4}, 0, 4, 4, 0, 0, false},
		{"below slack", []int{2, 5}, []int{2, 2}, 1, 4, 4, 0, 0, false},
		{"three way", []int{5, 0, 20}, []int{2, 2, 2}, 1, 6, 4, 1, 2, true},
		{"single shard", []int{9}, []int{2}, 1, 4, 1, 0, 0, false},
	}
	for _, c := range cases {
		from, to, ok := planShift(c.loads, c.lims, c.floor, c.cap, c.slack)
		if ok != c.ok || (ok && (from != c.from || to != c.to)) {
			t.Errorf("%s: planShift = (%d,%d,%v), want (%d,%d,%v)",
				c.name, from, to, ok, c.from, c.to, c.ok)
		}
	}
}

// TestRebalanceConservesTotalAllowance forces a load skew (every request
// carries the same sticky key), waits for at least one applied SetLimit
// shift, and asserts the invariants the whole time: the global allowance
// total never changes and no shard drops below its floor.
func TestRebalanceConservesTotalAllowance(t *testing.T) {
	const shards, perShard = 2, 2
	tf := startFabric(t, Options{
		Shards:           shards,
		BackendProcs:     perShard,
		RebalanceTicks:   10,
		RebalanceSlack:   1,
		HysteresisRounds: 2,
		// Stealing off: an idle sibling stealing the hot shard's queue
		// moves real load to the cold shard, and the rebalancer then
		// (correctly) shifts allowance toward the thief — which this
		// test would misread as a wrong-direction shift.
		StealMin: NoSteal,
	}, func(fab *Fabric) {
		fab.Handle("/park", parkHandler)
	})

	hot := tf.fab.ownerOf("hot")
	stop := make(chan struct{})
	const clients = 6
	for i := 0; i < clients; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				kc, err := net.DialTimeout("tcp", tf.addr(), time.Second)
				if err != nil {
					continue
				}
				c := &kaConn{nc: kc}
				for r := 0; r < 50; r++ {
					if c.send("/park?ticks=30", "X-Shard-Key: hot") != nil {
						break
					}
					if _, _, err := c.recv(10 * time.Second); err != nil {
						break
					}
				}
				kc.Close()
			}
		}()
	}
	defer close(stop)

	total := shards * perShard
	deadline := time.Now().Add(30 * time.Second)
	sawShift := false
	for time.Now().Before(deadline) {
		limits := tf.fab.Limits()
		sum := 0
		for i, l := range limits {
			sum += l
			if l < 1 {
				t.Fatalf("shard %d allowance %d below floor", i, l)
			}
		}
		if sum != total {
			t.Fatalf("allowance total %d, want %d (limits %v)", sum, total, limits)
		}
		if tf.fab.FrontMetrics().Snapshot().Get("shard.rebalances") >= 1 {
			sawShift = true
			// The shift must have moved allowance toward the hot shard.
			if limits[hot] <= perShard {
				// Re-read: the shift may have landed between our two reads.
				limits = tf.fab.Limits()
			}
			if limits[hot] <= perShard {
				t.Errorf("hot shard %d allowance %d not grown past %d (limits %v)",
					hot, limits[hot], perShard, limits)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawShift {
		t.Fatal("no rebalance observed under forced skew")
	}
}

// TestShrinkWhileBusyReleasesProcsAtSafePoints shrinks a busy shard's
// allowance mid-flight: every in-flight request still completes (procs
// release only at safe points, never mid-handler) and the shard's live
// proc count then settles at the new limit.
func TestShrinkWhileBusyReleasesProcsAtSafePoints(t *testing.T) {
	tf := startFabric(t, Options{
		Shards:         2,
		BackendProcs:   2,
		RebalanceTicks: NoRebalance,
	}, func(fab *Fabric) {
		fab.Handle("/park", parkHandler)
	})
	hot := tf.fab.ownerOf("busykey")
	b := tf.fab.backends[hot]

	const clients = 4
	results := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			kc, err := net.DialTimeout("tcp", tf.addr(), 2*time.Second)
			if err != nil {
				results <- err
				return
			}
			defer kc.Close()
			c := &kaConn{nc: kc}
			if err := c.send("/park?ticks=150", "X-Shard-Key: busykey", "Connection: close"); err != nil {
				results <- err
				return
			}
			st, _, err := c.recv(20 * time.Second)
			if err == nil && st != 200 {
				err = fmt.Errorf("status %d", st)
			}
			results <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the parks get in flight
	b.pl.SetLimit(1)
	for i := 0; i < clients; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight request dropped by shrink: %v", err)
		}
	}
	settled := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if b.pl.Live() <= 1 {
			settled = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !settled {
		t.Errorf("shard %d live procs = %d, want <= 1 after shrink", hot, b.pl.Live())
	}
}

// TestDrainCascadeZeroDropped calls Drain with requests in flight: each
// must complete (the cascade waits for the front's connections before
// draining backends), new connections must be refused, and every runner
// must return.
func TestDrainCascadeZeroDropped(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2, RebalanceTicks: NoRebalance},
		func(fab *Fabric) { fab.Handle("/park", parkHandler) })

	const clients = 3
	results := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			kc, err := net.DialTimeout("tcp", tf.addr(), 2*time.Second)
			if err != nil {
				results <- -1
				return
			}
			defer kc.Close()
			c := &kaConn{nc: kc}
			if c.send("/park?ticks=80", "Connection: close") != nil {
				results <- -1
				return
			}
			st, _, err := c.recv(30 * time.Second)
			if err != nil {
				st = -1
			}
			results <- st
		}()
	}
	time.Sleep(30 * time.Millisecond) // requests reach the shards
	tf.drainAndWait(t)
	for i := 0; i < clients; i++ {
		if st := <-results; st != 200 {
			t.Errorf("in-flight request got %d during drain, want 200", st)
		}
	}
	if _, err := net.DialTimeout("tcp", tf.addr(), 500*time.Millisecond); err == nil {
		t.Error("fabric still accepting connections after drain")
	}
}

// TestMultiShardAccessLogUnTorn drives traffic through every shard into
// the shared access log and checks each line is whole — exactly the
// seven "shard tick proc status latency method path" fields — with at
// least two distinct shard ids present.
func TestMultiShardAccessLogUnTorn(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2, RebalanceTicks: NoRebalance}, nil)
	// Pick sticky keys that provably cover both shards.
	var keys []string
	perShard := map[int]int{}
	for i := 0; len(keys) < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		if s := tf.fab.ownerOf(key); perShard[s] < 4 {
			perShard[s]++
			keys = append(keys, key)
		}
	}
	done := make(chan error, len(keys))
	for _, key := range keys {
		key := key
		go func() {
			kc, err := net.DialTimeout("tcp", tf.addr(), 2*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer kc.Close()
			c := &kaConn{nc: kc}
			for i := 0; i < 10; i++ {
				if err := c.send("/echo?msg=x", "X-Shard-Key: "+key); err != nil {
					done <- err
					return
				}
				if st, _, err := c.recv(10 * time.Second); err != nil || st != 200 {
					done <- fmt.Errorf("status %d err %v", st, err)
					return
				}
			}
			done <- nil
		}()
	}
	for range keys {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	tf.drainAndWait(t)

	log := tf.fab.AccessLog()
	lines := bytes.Split(bytes.TrimSpace(log), []byte("\n"))
	if len(lines) < len(keys)*10 {
		t.Fatalf("access log has %d lines, want >= %d", len(lines), len(keys)*10)
	}
	shardsSeen := map[string]bool{}
	for _, ln := range lines {
		f := bytes.Fields(ln)
		if len(f) != 7 {
			t.Errorf("torn or malformed access-log line %q", ln)
			continue
		}
		shardsSeen[string(f[0])] = true
	}
	if len(shardsSeen) < 2 {
		t.Errorf("access log lines carry %d distinct shard ids, want >= 2 (%v)",
			len(shardsSeen), shardsSeen)
	}
}

// TestFabriczStatusEndpoint sanity-checks the front's own endpoint.
func TestFabriczStatusEndpoint(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2, RebalanceTicks: NoRebalance}, nil)
	kc := dialKA(t, tf.addr())
	if err := kc.send("/fabricz", "Connection: close"); err != nil {
		t.Fatal(err)
	}
	st, body, err := kc.recv(10 * time.Second)
	if err != nil || st != 200 {
		t.Fatalf("status %d err %v", st, err)
	}
	if !bytes.Contains(body, []byte("shards 2")) || !bytes.Contains(body, []byte("shard 0 limit")) {
		t.Errorf("unexpected /fabricz body: %q", body)
	}
}

// TestRingStealSkipsPinned: pinned (topic-routed) jobs never leave
// their owner's ring — a stolen publish would be acked by a broker
// holding none of the topic's subscribers.  Unpinned neighbours are
// still claimable, and both the stolen run and the survivors keep
// their relative order.
func TestRingStealSkipsPinned(t *testing.T) {
	r := testRing(8)
	for i := 0; i < 6; i++ {
		push1(r, job{remaining: int64(i), pinned: i%2 == 0})
	}
	dst := make([]job, 8)
	n := r.stealN(dst)
	if n != 3 {
		t.Fatalf("stealN = %d, want 3 (the unpinned half)", n)
	}
	for i, want := range []int64{1, 3, 5} {
		if dst[i].pinned || dst[i].remaining != want {
			t.Errorf("stolen[%d] = {remaining %d pinned %v}, want {%d false}",
				i, dst[i].remaining, dst[i].pinned, want)
		}
	}
	// The owner drains the pinned survivors, oldest first.
	for _, want := range []int64{0, 2, 4} {
		j, ok := pop1(r)
		if !ok || j.remaining != want || !j.pinned {
			t.Fatalf("owner pop = {ok %v remaining %d pinned %v}, want {true %d true}",
				ok, j.remaining, j.pinned, want)
		}
	}
	// A ring of only pinned jobs yields nothing but is not an error.
	for i := 0; i < 4; i++ {
		push1(r, job{remaining: int64(i), pinned: true})
	}
	if n := r.stealN(dst); n != 0 {
		t.Errorf("stealN over all-pinned ring = %d, want 0", n)
	}
	if r.depth() != 4 {
		t.Errorf("depth after refused steal = %d, want 4", r.depth())
	}
}
