package serve

// Conn is the reusable HTTP/1.1 connection state machine, extracted from
// the one-request-per-connection worker so that both the server's own
// direct path and the sharded front acceptor (internal/shard) drive
// persistent keep-alive connections through one implementation.
//
// The state the machine carries across requests is the residual read
// buffer: bytes that arrived beyond the previous request's body — the
// head of a pipelined next request — are retained and consumed before
// the socket is read again, so a client that writes several requests
// back-to-back has them answered back-to-back, in order.  Every socket
// call runs under the owner's Blocking hook: a thread waiting for bytes
// or buffer space sits in the kernel holding no proc.  Ticks are
// deadlines, not latency: a wait's tick budget becomes its socket
// deadline, and nothing polls the clock in between.

import (
	"bytes"
	"errors"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cml"
	"repro/internal/metrics"
	"repro/internal/proc"
)

var (
	// ErrDeadline reports that the request (or idle keep-alive) deadline
	// passed before a full request arrived or a response was written.
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrTooLarge reports a header block or declared body over the limits.
	ErrTooLarge = errors.New("serve: request too large")
	// ErrBadRequest reports an unparseable request head.
	ErrBadRequest = errors.New("serve: malformed request")
	// ErrAborted reports that the config's Aborted hook (drain) fired
	// while waiting for a request.
	ErrAborted = errors.New("serve: read aborted")
)

// malformedResponse answers bytes that cannot parse as a request.
func malformedResponse(err error) Response {
	if errors.Is(err, ErrTooLarge) {
		return Response{Status: 413, Body: []byte("request too large\n")}
	}
	return Response{Status: 400, Body: []byte("malformed request\n")}
}

// ReadErrResponse is every front's taxonomy for a failed head read: the
// response the client is owed, or ok false for a silent close — an idle
// keep-alive connection that ran out its budget or met the drain with
// nothing asked, and EOFs and resets, where there is nobody to tell.
// served is how many responses the connection has been sent so far.
func ReadErrResponse(c *Conn, served int, err error) (resp Response, ok bool) {
	switch {
	case errors.Is(err, ErrDeadline):
		if served > 0 && !c.Partial() {
			return resp, false
		}
		return Response{Status: 504, Body: []byte("deadline exceeded reading request\n")}, true
	case errors.Is(err, ErrAborted):
		if !c.Partial() {
			return resp, false
		}
		return ShedResponse("draining"), true
	case errors.Is(err, ErrTooLarge), errors.Is(err, ErrBadRequest):
		return malformedResponse(err), true
	}
	return resp, false
}

// ConnConfig wires a Conn to its owner's scheduling world.  Every field
// except Clock and Park is optional.
type ConnConfig struct {
	// Clock is the owner's virtual clock; deadlines are ticks on it.
	Clock *cml.Clock
	// Park suspends the calling thread for the given number of ticks.
	Park func(ticks int64)
	// Blocking runs one socket call with the calling thread's proc
	// released (threads.System.Blocking); nil calls it directly.
	Blocking func(call func())
	// Tick is the wall-clock length of one virtual-clock tick (default
	// 1ms).  Socket deadlines are tick deadlines converted through it when
	// armed, so a stalled clock pump bounds — rather than extends — every
	// idle and write budget.
	Tick time.Duration
	// Pool supplies response render buffers; nil allocates per response.
	Pool *BufPool
	// OnWriteBatch is called with the number of responses coalesced into
	// each WriteResponses socket-write batch (metrics hook).
	OnWriteBatch func(n int)
	// Aborted, when non-nil and returning true, aborts an in-progress
	// ReadRequest with ErrAborted — the drain hook.  The owner raises the
	// condition, then calls Conns.Interrupt to wake readers in the kernel.
	Aborted func() bool
	// Conns, when non-nil, tracks the connections ConnLoop is serving.
	Conns *ConnSet
}

// Conn drives one client connection.  The first field group is shared
// by both faces of the machine; the second is the resumable path's
// parked state (resume.go) — deliberately small, because at the
// multiplexed front's scale it is the per-idle-connection cost.
type Conn struct {
	cfg   ConnConfig
	nc    net.Conn
	acc   []byte  // unconsumed input: partial or pipelined next request
	buf   []byte  // scratch read block (blocking path only; lazily allocated)
	op    *sockOp // staged socket call (blocking path only; lazily allocated)
	arena []byte  // request-body arena, reset at each batch start

	fd         int       // raw descriptor for the resumable path; -1 when unused
	state      ConnState // explicit phase (resumable path)
	rdStarted  bool      // current request has begun arriving
	rdArrival  int64     // tick the current request started
	rdDeadline int64     // tick the current request must complete by
	wbuf       []byte    // staged response bytes (StateWriting)
	woff       int       // staged bytes already written
}

// NewConn wraps an accepted connection.  The blocking path's read block
// is allocated on first use, so a multiplexed connection — which reads
// through its owner's shared scratch instead — never pays for one.
func NewConn(nc net.Conn, cfg ConnConfig) *Conn {
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.Blocking == nil {
		cfg.Blocking = callDirectly
	}
	return &Conn{cfg: cfg, nc: nc, fd: -1}
}

func callDirectly(call func()) { call() }

// sockOp is the one socket call a blocking-path Conn has in flight,
// staged as data — its argument and results live here and run is built
// once — so handing the call to ConnConfig.Blocking allocates nothing.
type sockOp struct {
	c    *Conn
	bufs *net.Buffers // the write staged; nil stages a read into c.buf
	flat net.Buffers  // writeAll's one-element iovec, backed by one
	one  [1][]byte
	n    int
	err  error
	run  func()
}

func (o *sockOp) call() {
	if o.bufs == nil {
		o.n, o.err = o.c.nc.Read(o.c.buf)
	} else {
		_, o.err = o.bufs.WriteTo(o.c.nc)
	}
}

func (c *Conn) staged() *sockOp {
	if c.op == nil {
		c.op = &sockOp{c: c}
		c.op.run = c.op.call
	}
	return c.op
}

// sock performs one socket call under the owner's Blocking hook — the
// only place this file touches the socket's data path.
func (c *Conn) sock(bufs *net.Buffers) (int, error) {
	o := c.staged()
	o.bufs = bufs
	c.cfg.Blocking(o.run)
	o.bufs = nil
	return o.n, o.err
}

// Partial reports whether unconsumed request bytes are buffered — used
// by callers to distinguish an idle keep-alive deadline (close silently)
// from a mid-request stall (answer 504).
func (c *Conn) Partial() bool { return len(c.acc) > 0 }

var crlf2 = []byte("\r\n\r\n")

// ReadRequest reads and parses one request.  Until the first byte of the
// request is buffered the wait is bounded by headDeadline (the keep-alive
// idle budget); once the request has started arriving — including via
// residual pipelined bytes — the whole head+body must complete within
// budget ticks of that start.  On success the returned request carries
// Arrival (start tick) and Deadline (start + budget).
func (c *Conn) ReadRequest(headDeadline, budget int64) (*Request, error) {
	// A blocking read starts a new batch: every request of the previous
	// one has been handled and its response written, so the arena slices
	// handed out as bodies are dead and the space can be reused.
	c.arena = c.arena[:0]
	arrival := c.cfg.Clock.Now()
	started := len(c.acc) > 0
	dl := headDeadline
	if started {
		dl = arrival + budget
	}
	wall := c.wallCap(dl)

	headerEnd := bytes.Index(c.acc, crlf2)
	for headerEnd < 0 {
		if len(c.acc) > maxHeaderBytes {
			return nil, ErrTooLarge
		}
		n, err := c.recv(dl, wall, true)
		if n > 0 {
			if !started {
				started = true
				arrival = c.cfg.Clock.Now()
				dl = arrival + budget
				wall = c.wallCap(dl)
			}
			headerEnd = bytes.Index(c.acc, crlf2)
		}
		if err != nil && headerEnd < 0 {
			return nil, err
		}
	}
	req, contentLength, err := parseHeader(c.acc[:headerEnd])
	if err != nil {
		return nil, err
	}
	if contentLength > maxBodyBytes {
		return nil, ErrTooLarge
	}
	total := headerEnd + 4 + contentLength
	for len(c.acc) < total {
		if n, err := c.recv(dl, wall, false); n == 0 && err != nil {
			return nil, err
		}
	}
	req.Body = c.takeBody(headerEnd+4, total)
	req.Arrival = arrival
	req.Deadline = dl
	return req, nil
}

// ReadBuffered parses one more request from the residual buffer without
// touching the socket: after a blocking ReadRequest returns, the batching
// front drains any fully-buffered pipelined successors this way, so a
// client that wrote K requests back-to-back has all K forwarded as one
// multi-push.  It returns (nil, false, nil) when a complete request is
// not yet buffered — the partial head waits for the next blocking
// ReadRequest.  A head that is complete but malformed (or declares an
// oversized body) is surfaced immediately as ErrBadRequest/ErrTooLarge:
// the caller must answer it and close, because a poisoned pipeline would
// otherwise be re-parsed forever — the bytes can never become a valid
// request, and more reads only pile garbage behind them.
func (c *Conn) ReadBuffered(budget int64) (*Request, bool, error) {
	headerEnd := bytes.Index(c.acc, crlf2)
	if headerEnd < 0 {
		return nil, false, nil
	}
	req, contentLength, err := parseHeader(c.acc[:headerEnd])
	if err != nil {
		return nil, false, err
	}
	if contentLength > maxBodyBytes {
		return nil, false, ErrTooLarge
	}
	total := headerEnd + 4 + contentLength
	if len(c.acc) < total {
		return nil, false, nil
	}
	arrival := c.cfg.Clock.Now()
	req.Body = c.takeBody(headerEnd+4, total)
	req.Arrival = arrival
	req.Deadline = arrival + budget
	return req, true, nil
}

// Gather collects a dispatch batch behind head into reqs: the blocking
// read cost is paid, so everything the client pipelined behind it is
// already buffered and parses for free, up to max requests, each given
// budget ticks.  A Close request ends the batch — nothing after it will
// be answered.  A poisoned pipeline (buffered bytes that can never
// become a valid request) ends it too, with badTail set (Status != 0):
// the owner answers the malformed successor after the batch and closes
// instead of re-parsing the same garbage forever.
func (c *Conn) Gather(head *Request, reqs []*Request, max int, budget int64) (_ []*Request, badTail Response) {
	reqs = append(reqs[:0], head)
	for len(reqs) < max && !reqs[len(reqs)-1].Close {
		nxt, ok, err := c.ReadBuffered(budget)
		if err != nil {
			return reqs, malformedResponse(err)
		}
		if !ok {
			break
		}
		reqs = append(reqs, nxt)
	}
	return reqs, Response{}
}

// takeBody moves acc[from:to] into the connection's arena and slides acc
// left to expose the next pipelined request, returning the body as a
// capacity-clipped arena slice.  The arena is reset at each blocking
// ReadRequest, so in the steady state (arena grown to the largest batch
// seen) the copy allocates nothing; a mid-batch arena growth leaves
// earlier bodies pointing into the old backing array, which stays valid.
func (c *Conn) takeBody(from, to int) []byte {
	off := len(c.arena)
	c.arena = append(c.arena, c.acc[from:to]...)
	c.acc = c.acc[:copy(c.acc, c.acc[to:])]
	return c.arena[off:len(c.arena):len(c.arena)]
}

// wallCap converts a tick-domain deadline into a wall-clock backstop,
// anchored at the moment the deadline is armed: now plus the remaining
// tick budget times the tick's wall length.  Socket deadlines and the
// pre-park expiry checks use this instant, so both time domains agree
// while the pump runs — and when the pump stalls, the wall anchor keeps
// counting, so a stall can only leave the budget at its armed length,
// never extend it.  (A stall before arming still over-reports the
// remaining ticks — Clock.Now() is stale — but the error is bounded by
// the stall, where the unanchored form was unbounded.)
func (c *Conn) wallCap(dl int64) time.Time {
	return time.Now().Add(time.Duration(dl-c.cfg.Clock.Now()) * c.cfg.Tick)
}

// recv performs one socket read into the residual buffer under the tick
// deadline dl and its wall form.  It arms the deadline, then — for a
// head read — asks Aborted, then reads: an abort raised after the
// question is followed by an Interrupt that lands after the arming, so
// the read cannot outlive it.  A timeout (the deadline, or an
// Interrupt) returns 0, nil; the next call decides which it was.
func (c *Conn) recv(dl int64, wall time.Time, head bool) (int, error) {
	if c.cfg.Clock.Now() >= dl || !time.Now().Before(wall) {
		return 0, ErrDeadline
	}
	c.nc.SetReadDeadline(wall)
	if head && c.cfg.Aborted != nil && c.cfg.Aborted() {
		return 0, ErrAborted
	}
	if c.buf == nil {
		c.buf = make([]byte, 4096)
	}
	n, err := c.sock(nil)
	c.acc = append(c.acc, c.buf[:n]...)
	if isTimeout(err) {
		err = nil
	}
	return n, err
}

// WriteResponse is WriteResponses for a single response.
func (c *Conn) WriteResponse(resp Response, capTick int64, keepAlive bool) error {
	one := [1]Response{resp}
	return c.WriteResponses(one[:], capTick, keepAlive)
}

// vectoredWriteBytes is the batch body volume above which WriteResponses
// stops flattening bodies into the render buffer and hands the kernel an
// iovec instead: past this point copying costs more than the writev
// setup, and the render buffer would balloon to the payload size.
const vectoredWriteBytes = 64 << 10

// WriteResponses writes a whole batch of responses with one deadline-set
// and one socket write in the common case — the reply-path complement of
// the request side's multi-push.  Every response except the last carries
// Connection: keep-alive (more of the batch follows by construction);
// the last takes the caller's keepAlive decision.  Small batches render
// into one pooled multi-response buffer; batches with large bodies
// render only the headers and ride a net.Buffers vectored write, so
// bodies are never copied.  Either way the socket write gives up at
// capTick, as writeAll does.
func (c *Conn) WriteResponses(resps []Response, capTick int64, keepAlive bool) error {
	if len(resps) == 0 {
		return nil
	}
	if c.cfg.OnWriteBatch != nil {
		c.cfg.OnWriteBatch(len(resps))
	}
	shard, _ := proc.TrySelf()
	rb := c.cfg.Pool.get(shard)
	defer c.cfg.Pool.put(shard, rb)
	total := 0
	for i := range resps {
		total += len(resps[i].Body)
	}
	last := len(resps) - 1
	wall := c.wallCap(capTick)
	if total <= vectoredWriteBytes {
		for i := range resps {
			renderResponse(rb, resps[i], i < last || keepAlive)
		}
		return c.writeAll(rb.b.Bytes(), capTick, wall)
	}
	// Vectored path: headers land contiguously in the pooled buffer (the
	// offsets are recorded first, because the buffer may move while it
	// grows), bodies are referenced in place.
	rb.offs = rb.offs[:0]
	for i := range resps {
		rb.offs = append(rb.offs, rb.b.Len())
		renderHeader(rb, resps[i], i < last || keepAlive, len(resps[i].Body))
	}
	hdrs := rb.b.Bytes()
	rb.iov = rb.iov[:0]
	for i := range resps {
		end := len(hdrs)
		if i < last {
			end = rb.offs[i+1]
		}
		rb.iov = append(rb.iov, hdrs[rb.offs[i]:end], resps[i].Body)
	}
	// writeBuffers consumes its argument, so hand it a window over the
	// assembly rather than the assembly itself; the window lives on the
	// pooled buffer (not the stack) so the escaping pointer costs nothing.
	rb.iovw = rb.iov
	err := c.writeBuffers(&rb.iovw, capTick, wall)
	clear(rb.iov) // drop header/body references for the collector
	rb.iov, rb.iovw = rb.iov[:0], nil
	return err
}

// writeBuffers writes an iovec batch, blocking in the kernel up to the
// wall form of capTick so a stalled client cannot hold the thread past
// it.  net.Buffers consumes its written prefix across calls, so a
// partial write resumes exactly where the socket stalled.
func (c *Conn) writeBuffers(bufs *net.Buffers, capTick int64, wall time.Time) error {
	for len(*bufs) > 0 {
		if c.cfg.Clock.Now() >= capTick || !time.Now().Before(wall) {
			return ErrDeadline
		}
		c.nc.SetWriteDeadline(wall)
		if _, err := c.sock(bufs); err != nil && !(isTimeout(err) && len(*bufs) > 0) {
			return err
		}
	}
	return nil
}

// writeAll is writeBuffers for one flat buffer.
func (c *Conn) writeAll(buf []byte, capTick int64, wall time.Time) error {
	o := c.staged()
	o.one[0] = buf
	o.flat = o.one[:]
	err := c.writeBuffers(&o.flat, capTick, wall)
	o.one[0] = nil
	return err
}

// renderResponse builds the wire form of resp.  It is alloc-free in the
// steady state: ints are formatted through the respBuf's own scratch
// array and everything lands in its reused bytes.Buffer.
func renderResponse(rb *respBuf, resp Response, keepAlive bool) {
	renderHeader(rb, resp, keepAlive, len(resp.Body))
	rb.b.Write(resp.Body)
}

// renderHeader renders the status line and headers (through the blank
// line) for a response whose body is clen bytes — the shared front half
// of the flat and vectored render paths.
func renderHeader(rb *respBuf, resp Response, keepAlive bool, clen int) {
	ctype := resp.ContentType
	if ctype == "" {
		ctype = "text/plain; charset=utf-8"
	}
	b := &rb.b
	b.WriteString("HTTP/1.1 ")
	b.Write(strconv.AppendInt(rb.scratch[:0], int64(resp.Status), 10))
	b.WriteByte(' ')
	b.WriteString(statusText(resp.Status))
	b.WriteString("\r\nContent-Type: ")
	b.WriteString(ctype)
	b.WriteString("\r\nContent-Length: ")
	b.Write(strconv.AppendInt(rb.scratch[:0], int64(clen), 10))
	if resp.RetryAfter > 0 {
		b.WriteString("\r\nRetry-After: ")
		b.Write(strconv.AppendInt(rb.scratch[:0], int64(resp.RetryAfter), 10))
	}
	if keepAlive {
		b.WriteString("\r\nConnection: keep-alive\r\n\r\n")
	} else {
		b.WriteString("\r\nConnection: close\r\n\r\n")
	}
}

// respBuf is one pooled response render buffer; scratch backs integer
// formatting, offs and iov back the vectored batch path, so the render
// path never reaches for the heap.
type respBuf struct {
	b       bytes.Buffer
	scratch [24]byte
	offs    []int       // per-response header offsets into b (vectored path)
	iov     net.Buffers // reused iovec assembly (vectored path)
	iovw    net.Buffers // consumable window over iov handed to writeBuffers
}

// bufShard holds one proc's cached buffer alone on its cache line, the
// metrics-shard padding pattern: Get/Put are single uncontended atomic
// swaps on a line private to the calling proc.
type bufShard struct {
	p atomic.Pointer[respBuf]
	_ [metrics.CacheLineBytes - 8]byte
}

// BufPool is a per-proc pool of response render buffers.  A nil pool is
// valid and allocates per call.
type BufPool struct {
	mask   uint32
	shards []bufShard
}

// NewBufPool returns a pool with one shard per proc (rounded up to a
// power of two so any id masks to a valid shard).
func NewBufPool(procs int) *BufPool {
	n := 1
	for n < procs {
		n <<= 1
	}
	return &BufPool{mask: uint32(n - 1), shards: make([]bufShard, n)}
}

// get takes the shard's cached buffer (reset), or allocates one.
func (p *BufPool) get(shard int) *respBuf {
	if p == nil {
		return &respBuf{}
	}
	if rb := p.shards[uint32(shard)&p.mask].p.Swap(nil); rb != nil {
		rb.b.Reset()
		return rb
	}
	return &respBuf{}
}

// put caches the buffer on the shard the calling proc now occupies (a
// thread may have migrated since get; either shard is a valid home).
func (p *BufPool) put(shard int, rb *respBuf) {
	if p == nil {
		return
	}
	p.shards[uint32(shard)&p.mask].p.Store(rb)
}
