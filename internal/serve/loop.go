package serve

// Everything that touches a socket or drives a clock exists once, here:
// the keep-alive connection loop, the clock pump, the accept loop, the
// shed-a-connection helper and the draining owner's wake-ups.  The
// single server and the fabric's thread-per-connection front
// (internal/shard) are two callers that differ only in the values they
// pass — the paper's one functor body, parameterised by what varies.

import (
	"errors"
	"net"
	"time"

	"repro/internal/cml"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/threads"
)

// RetryAfterSeconds is the Retry-After hint on every shed response.
const RetryAfterSeconds = 1

// ShedResponse is the 503 + Retry-After every admission refusal answers.
func ShedResponse(why string) Response {
	return Response{
		Status:     503,
		Body:       []byte("shedding load: " + why + "\n"),
		RetryAfter: RetryAfterSeconds,
	}
}

// ShedConn answers a connection that will not be served with resp and
// closes it, best-effort: the write is capped to a few ticks so a dead
// client cannot stall the shedding thread.
func ShedConn(nc net.Conn, cfg ConnConfig, resp Response) {
	NewConn(nc, cfg).WriteResponse(resp, cfg.Clock.Now()+20, false)
	nc.Close()
}

// ConnLoop parameterises the keep-alive connection loop; every field is
// required.
type ConnLoop struct {
	// DeadlineTicks is the per-request budget, and bounds the wait for a
	// connection's first request.
	DeadlineTicks int64
	// IdleTicks bounds the wait between requests.
	IdleTicks int64
	// BatchMax bounds the pipelined run gathered into one dispatch.
	BatchMax int
	// Draining ends keep-alive after the batch in hand.
	Draining func() bool
	// Dispatch answers a gathered batch: it appends one response per
	// request to resps, in request order, and may stop after a streaming
	// response — nothing behind a stream is ever written.
	Dispatch func(reqs []*Request, resps []Response) []Response
	// Stream takes the connection for a streaming response whose header
	// has not been written yet; it returns when the stream has ended.
	Stream func(c *Conn, resp Response)
	// Answered is called before each response the loop itself produces —
	// for a failed read or a poisoned pipelined tail — with the tick the
	// connection began waiting (accounting hook).
	Answered func(resp Response, since int64)
}

// Serve runs connection c, admitted at tick arrival, for its keep-alive
// lifetime: read a head request, gather every fully-buffered pipelined
// successor behind it, dispatch the batch, and write the whole run of
// responses with one socket write — until the client closes, opts out
// of keep-alive, errs, goes idle past its budget, or the owner drains.
// A streaming response ends the loop: the responses ahead of it flush
// (keep-alive — the stream header follows on the same socket) and Stream
// owns the connection from there.  The caller closes the connection.
//
// Serve returns the read error of a connection that broke mid-request
// or before its first one (EOF, reset); every orderly end returns nil.
func (l *ConnLoop) Serve(c *Conn, arrival int64) error {
	if set := c.cfg.Conns; set != nil {
		set.track(c, true)
		defer set.track(c, false)
	}
	clock := c.cfg.Clock
	reqs := make([]*Request, 0, l.BatchMax)
	resps := make([]Response, 0, l.BatchMax+1)
	for served := 0; ; arrival = clock.Now() {
		headBudget := l.DeadlineTicks
		if served > 0 {
			headBudget = l.IdleTicks
		}
		head, err := c.ReadRequest(arrival+headBudget, l.DeadlineTicks)
		if err != nil {
			if resp, answer := ReadErrResponse(c, served, err); answer {
				l.Answered(resp, arrival)
				c.WriteResponse(resp, clock.Now()+20, false)
			} else if !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrAborted) &&
				(c.Partial() || served == 0) {
				return err
			}
			return nil
		}
		var badTail Response
		reqs, badTail = c.Gather(head, reqs, l.BatchMax, l.DeadlineTicks)
		// Snapshot the write cap before dispatch: a dispatch that forwards
		// the requests elsewhere may rebase their deadlines onto another
		// clock, after which they no longer carry this clock's ticks.
		last := reqs[len(reqs)-1]
		capTick := last.Deadline + 20
		resps = l.Dispatch(reqs, resps[:0])
		if si := FirstStream(resps); si >= 0 {
			if c.WriteResponses(resps[:si], capTick, true) != nil {
				resps[si].Stream.Cancel()
			} else {
				l.Stream(c, resps[si])
			}
			return nil
		}
		poisoned := badTail.Status != 0
		if poisoned {
			l.Answered(badTail, clock.Now())
			resps = append(resps, badTail)
		}
		keepAlive := !poisoned && !last.Close && !l.Draining()
		werr := c.WriteResponses(resps, capTick, keepAlive)
		served += len(resps)
		if werr != nil || !keepAlive {
			return nil
		}
	}
}

// FirstStream finds the first streaming response in a batch, -1 if
// none, cancelling every stream pipelined behind it: a stream takes the
// connection to its end, so those can never be written and must not
// leak.
func FirstStream(resps []Response) int {
	first := -1
	for i := range resps {
		if resps[i].Stream == nil {
			continue
		}
		if first < 0 {
			first = i
		} else {
			resps[i].Stream.Cancel()
		}
	}
	return first
}

// ConnSet is the connections an owner's keep-alive loops are serving.
// Their threads wait for requests in the kernel, so a draining owner
// raises what its Aborted hook reports and then calls Interrupt.
type ConnSet struct {
	lock  core.Lock
	conns map[*Conn]bool
}

// NewConnSet returns an empty set.
func NewConnSet() *ConnSet {
	return &ConnSet{lock: core.NewMutexLock(), conns: map[*Conn]bool{}}
}

func (s *ConnSet) track(c *Conn, serving bool) {
	s.lock.Lock()
	if serving {
		s.conns[c] = true
	} else {
		delete(s.conns, c)
	}
	s.lock.Unlock()
}

// expired, set as a deadline, wakes whatever is blocked on the socket.
var expired = time.Unix(1, 0)

// Interrupt expires every tracked connection's read deadline: a thread
// blocked in ReadRequest asks Aborted again (a read of a request already
// arriving re-arms and carries on).  Safe from any goroutine.
func (s *ConnSet) Interrupt() {
	s.lock.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(expired)
	}
	s.lock.Unlock()
}

// Pump advances clock from wall time, one tick per tick elapsed, until
// done reports true.  It is its owner's only time source — parks and
// deadline checks observe the virtual clock, so tests may substitute a
// hand-driven clock by never starting a pump — and its only thread that
// wakes on a period: it sleeps a fraction of a tick between advances,
// holding no proc, while everything else waits on events.
func Pump(sys *threads.System, clock *cml.Clock, tick time.Duration, done func() bool) {
	start := time.Now()
	var emitted int64
	nap := func() { time.Sleep(tick / 4) }
	for {
		target := int64(time.Since(start) / tick)
		if d := target - emitted; d > 0 {
			clock.Advance(sys, d)
			emitted = target
		}
		if done() {
			return
		}
		sys.CheckPreempt()
		sys.Blocking(nap)
	}
}

// Listen opens a listener for AcceptLoop; an empty addr means an
// ephemeral loopback port.
func Listen(addr string) (*net.TCPListener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	a, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenTCP("tcp", a)
}

// AcceptLoop accepts on ln until stop reports true, then closes it.  The
// accepting thread waits in the kernel holding no proc; an owner whose
// stop condition changes calls InterruptAccept to make the loop ask
// again.  Accept failures other than that interrupt are charged to
// errs; each accepted connection is handed to admit, which owns it.
func AcceptLoop(sys *threads.System, ln *net.TCPListener, errs *metrics.Counter,
	stop func() bool, admit func(net.Conn)) {
	var nc net.Conn
	var err error
	accept := func() { nc, err = ln.Accept() }
	for {
		// Clear a past interrupt before asking stop, never after: an
		// interrupt that follows the question then still ends the Accept.
		ln.SetDeadline(time.Time{})
		if stop() {
			break
		}
		sys.Blocking(accept)
		if err == nil {
			admit(nc)
			continue
		}
		if !isTimeout(err) {
			errs.Inc(proc.Self())
		}
		sys.CheckPreempt()
	}
	ln.Close()
}

// InterruptAccept makes the AcceptLoop on ln (nil: none) ask stop again;
// call it after changing what stop reports.  Safe from any goroutine.
func InterruptAccept(ln *net.TCPListener) {
	if ln != nil {
		ln.SetDeadline(expired)
	}
}

// isTimeout reports whether err is a network timeout (deadline expiry).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
