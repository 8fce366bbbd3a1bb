package main

// The harness's own keep-alive load generator: one goroutine per
// connection, hand-rolled HTTP/1.1 framing (net/http would add its own
// goroutines and buffering between the clock and the socket), every
// reply checked against what was sent.  Three drivers share it: a
// pipelined closed loop, a depth-1 open loop timed from due time, and a
// publisher/subscriber pair for the streaming path.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// ioTimeout bounds every socket wait: far above any latency a healthy
// run shows, so hitting it means the server stopped answering.
const ioTimeout = 10 * time.Second

// period is a measured window: traffic before it is warm-up, and a
// closed loop stops at its end.
type period struct{ start, end time.Time }

func (p period) holds(t time.Time) bool { return !t.Before(p.start) && t.Before(p.end) }

// tally is one connection's (and, merged, one window's) record.
type tally struct {
	lat     []int64 // request latency samples, ns
	deliver []int64 // pub/sub publish→frame-read samples, ns
	ok      int64
	failed  int64
	done    int64   // open loop: replies read inside the window, whenever due
	late    []int64 // open loop: how late the generator itself sent, ns
	gcFirst int64   // /work/mlalloc: first and last gcs= seen (-1: none yet)
	gcLast  int64
	err     error
	bad     string // the first wrong reply, for the violation message
}

func newTally() *tally { return &tally{gcFirst: -1} }

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.deliver = append(t.deliver, o.deliver...)
	t.late = append(t.late, o.late...)
	t.ok += o.ok
	t.failed += o.failed
	t.done += o.done
	if o.gcFirst >= 0 && (t.gcFirst < 0 || o.gcFirst < t.gcFirst) {
		t.gcFirst = o.gcFirst
	}
	t.gcLast = max(t.gcLast, o.gcLast)
	if t.err == nil {
		t.err = o.err
	}
	if t.bad == "" {
		t.bad = o.bad
	}
}

// wrong counts one failed operation and keeps the first one's description.
func (t *tally) wrong(status int, body []byte) {
	t.failed++
	if t.bad == "" {
		t.bad = fmt.Sprintf("status %d, body %.80q", status, body)
	}
}

// checker decides whether one reply is the right answer to what was sent.
type checker func(status int, body []byte, want expect, t *tally) bool

func checkEcho(status int, body []byte, want expect, _ *tally) bool {
	return status == 200 && bytes.Equal(body, want.body)
}

// checkMLAlloc verifies the parts of the reply that are a pure function
// of (n, seed): the cell count and the fold checksum Σ(seed+i).  (sum
// also mixes in whatever another request left in the shared registry, so
// it is not checkable from outside.)  It also tracks the collection
// count so the run can assert the collector actually ran.
func checkMLAlloc(status int, body []byte, want expect, t *tally) bool {
	var n, cells, sum, fold, gcs int64
	if status != 200 {
		return false
	}
	if _, err := fmt.Sscanf(string(body), "mlalloc n=%d cells=%d sum=%d fold=%d gcs=%d", &n, &cells, &sum, &fold, &gcs); err != nil {
		return false
	}
	if t.gcFirst < 0 {
		t.gcFirst = gcs
	}
	if gcs > t.gcLast {
		t.gcLast = gcs
	}
	const c = mlallocCells
	return n == c && cells == c && fold == c*want.seed+c*(c-1)/2
}

// client is one keep-alive connection.
type client struct {
	nc   net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *client) close() { c.nc.Close() }

var errBadResponse = errors.New("malformed HTTP response")

// readHead reads a status line and headers.  clen is the declared
// Content-Length, or -1 for a chunked (streaming) response.
func (c *client) readHead() (status, clen int, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, errBadResponse
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, 0, errBadResponse
	}
	clen = -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 {
			return status, clen, nil
		}
		const h = "content-length:"
		if len(line) > len(h) && bytes.EqualFold(line[:len(h)], []byte(h)) {
			if clen, err = strconv.Atoi(string(bytes.TrimSpace(line[len(h):]))); err != nil {
				return 0, 0, errBadResponse
			}
		}
	}
}

// readResponse reads one Content-Length framed reply; the body is valid
// until the next read on this client.
func (c *client) readResponse() (int, []byte, error) {
	status, clen, err := c.readHead()
	if err != nil {
		return 0, nil, err
	}
	if clen < 0 {
		return 0, nil, errBadResponse
	}
	if cap(c.body) < clen {
		c.body = make([]byte, clen)
	}
	c.body = c.body[:clen]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// readChunk reads one chunked-encoding frame; term reports the
// zero-length terminator.
func (c *client) readChunk() (frame []byte, term bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, false, err
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
	if err != nil {
		return nil, false, errBadResponse
	}
	if cap(c.body) < int(n)+2 {
		c.body = make([]byte, n+2)
	}
	c.body = c.body[:n+2]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return nil, false, err
	}
	return c.body[:n], n == 0, nil
}

// get is a one-shot request outside any measured window (health checks,
// status scrapes).
func get(addr, target string, hdr ...string) (int, []byte, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	c.nc.SetDeadline(time.Now().Add(ioTimeout))
	req := "GET " + target + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
	for _, h := range hdr {
		req += h + "\r\n"
	}
	if _, err := c.nc.Write([]byte(req + "\r\n")); err != nil {
		return 0, nil, err
	}
	status, body, err := c.readResponse()
	return status, append([]byte(nil), body...), err
}

// closedLoop drives one connection: write a round's pipelined requests,
// read its replies in order, repeat until the window ends.  A request's
// latency runs from the round's write to its own reply.
func closedLoop(c *client, rounds []round, check checker, w period, t *tally) {
	for i := 0; ; i++ {
		r := &rounds[i%len(rounds)]
		t0 := time.Now()
		if !t0.Before(w.end) {
			return
		}
		c.nc.SetDeadline(t0.Add(ioTimeout))
		if _, err := c.nc.Write(r.wire); err != nil {
			t.err = err
			return
		}
		for j := range r.want {
			status, body, err := c.readResponse()
			now := time.Now()
			if err != nil {
				t.err = err
				if w.holds(now) {
					t.failed += int64(len(r.want) - j)
				}
				return
			}
			good := check(status, body, r.want[j], t)
			switch {
			case !w.holds(now):
			case good:
				t.ok++
				t.lat = append(t.lat, int64(now.Sub(t0)))
			default:
				t.wrong(status, body)
			}
		}
	}
}

// openLoop sends this connection's arrivals on schedule, one at a time.
// Latency is timed from each request's due time, so the wait a stall
// imposes on the requests queued behind it is counted, not omitted; a
// request belongs to the window if it fell due in it.  late records how
// far behind the later of (due, connection free) the generator itself
// sent — its own timer and scheduling delay, never the server's.
func openLoop(c *client, arrivals []arrival, base time.Time, w period, t *tally) {
	free := base
	for i := range arrivals {
		a := &arrivals[i]
		due := base.Add(a.due)
		if now := time.Now(); now.Before(due) {
			time.Sleep(due.Sub(now))
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		sent := time.Now()
		c.nc.SetDeadline(sent.Add(ioTimeout))
		if _, err := c.nc.Write(a.wire); err != nil {
			t.err = err
			return
		}
		status, body, err := c.readResponse()
		free = time.Now()
		if err != nil {
			t.err = err
			if w.holds(due) {
				t.failed++
			}
			return
		}
		if w.holds(free) {
			t.done++
		}
		if !w.holds(due) {
			continue
		}
		t.late = append(t.late, int64(sent.Sub(ready)))
		if checkEcho(status, body, a.want[0], t) {
			t.ok++
			t.lat = append(t.lat, int64(free.Sub(due)))
		} else {
			t.wrong(status, body)
		}
	}
}

// maxPublishes bounds the pub/sub ledger; the publisher stops early if
// a window ever reaches it (about 100× the seed commit's rate).
const maxPublishes = 1 << 18

// ledger is the pub/sub oracle's shared record: the publisher stamps
// each id's send time and ack, every subscriber counts each id it reads.
type ledger struct {
	base  time.Time
	sent  []atomic.Int64 // send instant, ns since base (0 = never sent)
	acked []bool         // publisher-owned until it returns
	n     int            // publishes attempted, set when the publisher returns
}

// sentAt is when publish id was sent.
func (lg *ledger) sentAt(id int) time.Time {
	return lg.base.Add(time.Duration(lg.sent[id].Load() - 1))
}

func newLedger(base time.Time) *ledger {
	return &ledger{base: base, sent: make([]atomic.Int64, maxPublishes), acked: make([]bool, maxPublishes)}
}

// publish is the closed-loop publisher: the next POST /publish goes out
// after the previous one's ack.
func publish(c *client, seed int64, lg *ledger, w period, t *tally) {
	id := 0
	defer func() { lg.n = id }()
	for ; id < maxPublishes; id++ {
		if !time.Now().Before(w.end) {
			return
		}
		wire := publishRequest(publishPayload(seed, id))
		t0 := time.Now()
		lg.sent[id].Store(int64(t0.Sub(lg.base)) + 1)
		c.nc.SetDeadline(t0.Add(ioTimeout))
		if _, err := c.nc.Write(wire); err != nil {
			t.err = err
			id++
			return
		}
		status, _, err := c.readResponse()
		now := time.Now()
		if err != nil {
			t.err = err
			id++
			return
		}
		lg.acked[id] = status == 200
		if w.holds(t0) && status == 200 {
			t.lat = append(t.lat, int64(now.Sub(t0)))
		}
	}
}

// subscriber is one streaming GET /subscribe connection's reader side.
type subscriber struct {
	c     *client
	got   []uint8      // frames read per publish id
	last  atomic.Int64 // highest id read so far
	wrong int          // frames out of id order, corrupt, or unparseable
}

// subscribe opens the stream and returns once the server has announced
// the subscription id — by then the topic thread holds the subscriber,
// so every later acked publish owes it a frame.
func subscribe(addr string) (*subscriber, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c.nc.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := c.nc.Write([]byte("GET /subscribe?topic=t0 HTTP/1.1\r\nHost: bench\r\n\r\n")); err != nil {
		c.close()
		return nil, err
	}
	status, clen, err := c.readHead()
	if err == nil && (status != 200 || clen >= 0) {
		err = fmt.Errorf("subscribe: status %d, want a 200 chunked stream", status)
	}
	if err == nil {
		var frame []byte
		if frame, _, err = c.readChunk(); err == nil && !bytes.HasPrefix(frame, []byte("id:")) {
			err = fmt.Errorf("subscribe: first frame %q, want id:<n>", frame)
		}
	}
	if err != nil {
		c.close()
		return nil, err
	}
	s := &subscriber{c: c, got: make([]uint8, maxPublishes)}
	s.last.Store(-1)
	return s, nil
}

// read pulls frames until the server ends the stream (drain) or the
// connection dies, checking each against the payload its id regenerates
// and timing it from the publisher's send stamp.
func (s *subscriber) read(seed int64, lg *ledger, w period, t *tally, deadline time.Time) {
	s.c.nc.SetDeadline(deadline)
	for {
		frame, term, err := s.c.readChunk()
		now := time.Now()
		if term || err == io.EOF {
			return
		}
		if err != nil {
			t.err = err
			return
		}
		if len(frame) == 1 && frame[0] == '\n' {
			continue // heartbeat padding
		}
		id64, perr := strconv.ParseInt(string(frame[:min(16, len(frame))]), 16, 64)
		id := int(id64)
		if perr != nil || id < 0 || id >= maxPublishes || !bytes.Equal(frame, publishPayload(seed, id)) {
			s.wrong++
			continue
		}
		if int64(id) <= s.last.Load() {
			s.wrong++
		}
		if s.got[id] < 255 {
			s.got[id]++
		}
		if sent := lg.sentAt(id); w.holds(sent) {
			t.deliver = append(t.deliver, int64(now.Sub(sent)))
		}
		s.last.Store(int64(id))
	}
}
