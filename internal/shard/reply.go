package shard

// The reply path's completion structures: the single-assignment reply
// cell a forwarded request is answered through, and the per-batch
// countdown group whose zero-crossing resumes the one connection thread
// waiting for the batch.
//
// Like the forward ring (ring.go), everything here crosses the
// front/backend thread-system boundary, under the same rule: a
// primitive wakes on the system it was built on; the waker never parks
// on a foreign scheduler.  The backend stores the response then
// decrements the group's countdown (release); the decrement that
// reaches zero signals the group's wake, which the front thread blocks
// on holding no proc — the releaser names its waiter (Chalmers &
// Pedersen's hand-off) instead of the waiter polling.  The multiplexed
// front, whose pollers must never block on one batch, leaves the wake
// nil and polls done().

import (
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/threads"
)

// reply is the single-assignment completion cell for one forwarded
// request.  Every cell is enrolled in a replyGroup and decrements its
// countdown on delivery, so the batch wait observes "all delivered"
// from a single word.
type reply struct {
	resp serve.Response
	grp  *replyGroup
}

// deliver publishes the response; the group decrement after it is the
// release edge that makes resp visible to the front thread, and the
// decrement that completes a sealed group wakes that thread.
func (r *reply) deliver(resp serve.Response) {
	r.resp = resp
	g := r.grp
	if w := g.wake; g.remaining.Add(-1) == 0 && w != nil {
		w.Signal()
	}
}

// openBias is the count parked in a replyGroup while its batch is still
// being forwarded.  Cells can be delivered — and decrement the group —
// before the final membership is known (a ring-full shed drops cells
// mid-forward), so the counter cannot simply start at the batch size:
// it starts at the bias, absorbs early decrements, and seal() retires
// the bias against the real membership.  Any value comfortably above
// every possible in-flight decrement works; 2^40 is unreachable.
const openBias = int64(1) << 40

// replyGroup is the per-batch completion countdown: the last delivery
// drives remaining to zero, publishing the whole batch at once.  wake,
// when set, is fixed for the group's life.
type replyGroup struct {
	remaining atomic.Int64
	wake      *threads.Wake
}

// open arms the group for a new batch.  The owning thread only reuses a
// group once it has completed, so the store cannot race a straggling
// delivery.
func (g *replyGroup) open() { g.remaining.Store(openBias) }

// seal fixes the batch membership at members cells, retiring the open
// bias, and reports whether the group is thereby complete — every
// member delivered early, or none was pushed at all.  If not, remaining
// now counts exactly the undelivered cells, and the delivery that
// zeroes it signals wake exactly once: the owner waits if and only if
// seal returned false.
func (g *replyGroup) seal(members int) bool {
	return g.remaining.Add(int64(members)-openBias) == 0
}

// done reports whether every sealed member has delivered.  The atomic
// load orders after the final deliver's decrement, which itself orders
// after that cell's response store — so done() implies every member's
// resp is readable.
func (g *replyGroup) done() bool { return g.remaining.Load() == 0 }

// replySpin is how many fruitless passes a mux poller makes over its
// dispatched batches before napping.
const replySpin = 64
