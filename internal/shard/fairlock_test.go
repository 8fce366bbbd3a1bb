package shard

// Coverage for the fabric's one lock family: every cross-world lock is
// a FIFO claim/release lock (syncx.FairLock), polling the member's GC
// world on an MLAlloc fabric; the fabric serves correctly over them on
// both fronts, and their wait instrument surfaces on /fabricz.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spinlock"
	"repro/internal/syncx"
)

// TestFabricLocksAreFair pins the lock family: on a default fabric and
// on an MLAlloc one, every member's ring lock, the mux inbox, and each
// member server's state lock and semaphore guards are FairLocks, and
// each polls exactly its member's world — none without MLAlloc (the
// inbox never: it is front-only).
func TestFabricLocksAreFair(t *testing.T) {
	check := func(name string, l core.Lock, want spinlock.GCWorld) {
		t.Helper()
		f, ok := l.(*syncx.FairLock)
		if !ok {
			t.Errorf("%s: %T, want *syncx.FairLock", name, l)
			return
		}
		if f.World() != want {
			t.Errorf("%s: polls the wrong GC world", name)
		}
	}
	for _, opts := range []Options{
		{Shards: 2, Mux: true, Pollers: 2},
		mlOpts(Options{Shards: 2}),
	} {
		tf := startFabric(t, opts, nil)
		for _, b := range tf.fab.mem.Load().shards {
			var world spinlock.GCWorld
			nlocks := 3 // items and slots guards, state lock
			if opts.MLAlloc {
				world = b.world
				nlocks++ // mlalloc registry lock
			}
			check(fmt.Sprintf("member %d ring", b.id), b.ring.lock, world)
			locks := b.srv.Locks()
			if len(locks) != nlocks {
				t.Errorf("member %d server: %d locks, want %d", b.id, len(locks), nlocks)
			}
			for i, l := range locks {
				check(fmt.Sprintf("member %d server lock %d", b.id, i), l, world)
			}
		}
		for _, p := range tf.fab.pollers {
			check(fmt.Sprintf("poller %d inbox", p.id), p.inbox.lock, nil)
		}
	}
}

// TestFabricFairLocksEndToEnd drives concurrent keep-alive clients
// through a default fabric: every ring push/pop, steal claim, and
// reply wait goes through the claim/release path, and every request
// must still be answered correctly.
func TestFabricFairLocksEndToEnd(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2}, nil)
	const clients, reqs = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kc := dialKA(t, tf.addr())
			for i := 0; i < reqs; i++ {
				msg := fmt.Sprintf("c%dm%d", c, i)
				if err := kc.send("/echo?msg=" + msg); err != nil {
					errs <- err
					return
				}
				st, body, err := kc.recv(10 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
				if st != 200 || string(body) != msg {
					errs <- fmt.Errorf("client %d request %d: status %d body %q", c, i, st, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// /fabricz must surface the claim-wait instrument.
	kc := dialKA(t, tf.addr())
	if err := kc.send("/fabricz", "Connection: close"); err != nil {
		t.Fatal(err)
	}
	st, body, err := kc.recv(10 * time.Second)
	if err != nil || st != 200 {
		t.Fatalf("/fabricz: status %d err %v", st, err)
	}
	if !strings.Contains(string(body), "ring_waits ") {
		t.Errorf("/fabricz does not report ring_waits:\n%s", body)
	}
}

// TestFabricFairLocksMux covers the mux front's fair inbox: the
// acceptor→poller handoff lock is a FairLock, and the poller pool must
// still adopt and serve connections.
func TestFabricFairLocksMux(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2, Mux: true, Pollers: 2}, nil)
	for i := 0; i < 3; i++ {
		kc := dialKA(t, tf.addr())
		msg := fmt.Sprintf("mux%d", i)
		if err := kc.send("/echo?msg=" + msg); err != nil {
			t.Fatal(err)
		}
		st, body, err := kc.recv(10 * time.Second)
		if err != nil || st != 200 || string(body) != msg {
			t.Fatalf("request %d: status %d body %q err %v", i, st, body, err)
		}
		kc.nc.Close()
	}
}
