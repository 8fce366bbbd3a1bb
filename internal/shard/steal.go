package shard

// Cross-shard request stealing: the complement to the rebalancer.  The
// rebalancer shifts proc *allowance* between shards, with hysteresis
// measured in whole rebalance periods — the right tool for sustained
// skew, useless for a burst that arrives and dies inside one period.
// Stealing moves the *queued work itself*: when a shard's intake finds
// its own ring empty, it claims a batch from the most-loaded sibling's
// ring and runs those requests here, deadlines rebased across clock
// domains exactly as the front's forward path rebases them.
//
// The claim/release discipline follows Chalmers & Pedersen's handoff
// for cooperatively scheduled runtimes: the thief takes the victim's
// ring lock with TryLock only, and aborts on contention instead of
// spinning — the lock being held means the owner (or another thief) is
// already draining that ring, so there is nothing worth waiting for,
// and a thief must never busy-spin on a foreign shard's hot lock.  Two
// further guards keep the protocol livelock-free: a shard only steals
// when its own ring is empty (thieves are idle by definition), and only
// from victims at or above StealMin occupancy (probed lock-free via the
// ring's atomic depth mirror), so near-empty rings are never fought
// over.

import (
	"repro/internal/proc"
)

// steal claims up to len(dst) jobs (half the victim's queue at most)
// from the most-loaded sibling ring, returning how many jobs landed in
// dst; 0 when no sibling is loaded enough or the claim aborted.  Called
// by shard b's intake thread — a backend-world proc, which is safe on
// both sides: stealN touches only the victim ring's lock (a FairLock
// never parks on a foreign scheduler), and the front-registry counters
// mask the proc index.
func (fab *Fabric) steal(b *backend, dst []job) int {
	// A member that is not active must not pull new work in: a joining
	// shard has not been probed, and a draining one is trying to empty —
	// a steal would re-fill the ring the release choreography waits on.
	if b.phase.Load() != phaseActive {
		return 0
	}
	// Victims come from the current membership: a drained-out member's
	// closed ring is never scanned.
	var victim *backend
	best := fab.opts.StealMin - 1
	for _, o := range fab.mem.Load().shards {
		if o == b {
			continue
		}
		if d := o.ring.depth(); d > best {
			best = d
			victim = o
		}
	}
	if victim == nil {
		return 0
	}
	self := proc.Self()
	fab.m.stealAttempts.Inc(self)
	n := victim.ring.stealN(dst)
	if n < 0 {
		fab.m.stealAborts.Inc(self)
		return 0
	}
	if n == 0 {
		// Drained between the lock-free probe and the claim; benign.
		return 0
	}
	fab.m.steals.Inc(self)
	fab.m.stolen.Add(self, int64(n))
	fab.m.stealBatch.Observe(self, int64(n))
	fab.emit(fab.evSteal, int64(victim.id))
	return n
}
