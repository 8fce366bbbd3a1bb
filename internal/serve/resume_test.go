//go:build linux

package serve

// Resumable state-machine tests: ErrWouldBlock mid-header and mid-body
// with exact resume, EOF and deadline surfacing, the wall backstop that
// keeps a stalled clock pump from extending budgets, and the zero-alloc
// guarantee on the park/resume/stage/write cycle.  Built on socketpairs
// so the raw-fd path (fdio_unix.go) is the one under test.

import (
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/cml"
)

// resumePair returns a Conn wired to one end of a non-blocking
// socketpair and the peer fd the test writes stimulus into.
func resumePair(t *testing.T) (*Conn, int) {
	t.Helper()
	var fds [2]int
	pair, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	fds = pair
	if err := syscall.SetNonblock(fds[0], true); err != nil {
		t.Fatal(err)
	}
	c := NewConn(nil, ConnConfig{Clock: cml.NewClock(), Pool: NewBufPool(1)})
	c.SetFD(fds[0])
	t.Cleanup(func() {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
	})
	return c, fds[1]
}

func mustWrite(t *testing.T, fd int, s string) {
	t.Helper()
	if _, err := syscall.Write(fd, []byte(s)); err != nil {
		t.Fatal(err)
	}
}

// TestPollReadResumesMidHeader drains the socket mid-header: PollRead
// must return ErrWouldBlock with the partial head retained and the
// request deadline armed from the first byte, then parse the request on
// the next call once the rest arrives.
func TestPollReadResumesMidHeader(t *testing.T) {
	c, peer := resumePair(t)
	scratch := make([]byte, 4096)

	mustWrite(t, peer, "GET /a?x=1 HTTP/1.1\r\nHost: t\r\nCont")
	if _, err := c.PollRead(scratch, 100, 50); err != ErrWouldBlock {
		t.Fatalf("mid-header: err = %v, want ErrWouldBlock", err)
	}
	if c.State() != StateReading {
		t.Fatalf("state = %d, want StateReading", c.State())
	}
	if dl, started := c.ReadDeadline(); !started || dl != 50 {
		t.Fatalf("deadline = (%d, %v), want (50, true) armed from first byte", dl, started)
	}

	mustWrite(t, peer, "ent-Length: 0\r\n\r\n")
	req, err := c.PollRead(scratch, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/a" || req.Query("x") != "1" {
		t.Fatalf("resumed request = %+v", req)
	}
	if req.Deadline != req.Arrival+50 {
		t.Errorf("deadline = %d, want arrival %d + 50", req.Deadline, req.Arrival)
	}
}

// TestPollReadResumesMidBody stalls after the head and half the body;
// the resume must deliver the full body without re-reading what arrived.
func TestPollReadResumesMidBody(t *testing.T) {
	c, peer := resumePair(t)
	scratch := make([]byte, 4096)

	mustWrite(t, peer, "POST /b HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nab")
	if _, err := c.PollRead(scratch, 100, 50); err != ErrWouldBlock {
		t.Fatalf("mid-body: err = %v, want ErrWouldBlock", err)
	}
	mustWrite(t, peer, "cde")
	req, err := c.PollRead(scratch, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || string(req.Body) != "abcde" {
		t.Fatalf("resumed request = %+v body %q", req, req.Body)
	}
}

// TestPollReadSurfacesEOF: a closed peer reports io.EOF, the silent
// hangup the owner's error taxonomy maps to a wordless close.
func TestPollReadSurfacesEOF(t *testing.T) {
	c, peer := resumePair(t)
	syscall.Close(peer)
	if _, err := c.PollRead(make([]byte, 64), 100, 50); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestPollReadDeadlines: an expired idle budget surfaces ErrDeadline
// before the first byte, and an armed request deadline does after it.
func TestPollReadDeadlines(t *testing.T) {
	c, _ := resumePair(t)
	// Clock.Now() is 0 and headDeadline is 0: the idle budget is spent.
	if _, err := c.PollRead(make([]byte, 64), 0, 50); err != ErrDeadline {
		t.Fatalf("idle expiry: err = %v, want ErrDeadline", err)
	}

	c2, peer := resumePair(t)
	mustWrite(t, peer, "G")
	// budget 0: the deadline arms at the first byte and is immediately due.
	if _, err := c2.PollRead(make([]byte, 64), 100, 0); err != ErrDeadline {
		t.Fatalf("armed expiry: err = %v, want ErrDeadline", err)
	}
	if !c2.Partial() {
		t.Error("partial bytes must stay buffered across a deadline error")
	}
}

// TestReadRequestWallBackstopStalledClock freezes the tick domain (the
// clock is never pumped) and checks that the blocking read path still
// gives up: the wall backstop derived from Tick must bound the wait
// even though Clock.Now() never reaches the deadline.
func TestReadRequestWallBackstopStalledClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(cl net.Conn)
	}{
		{"idle", func(net.Conn) {}},
		{"mid-header", func(cl net.Conn) { cl.Write([]byte("GET /x HTTP/1.1\r\nHo")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, sv := net.Pipe()
			defer cl.Close()
			defer sv.Close()
			c := NewConn(sv, ConnConfig{
				Clock: cml.NewClock(), // never advanced: a stalled pump
				Park:  func(int64) {},
				Tick:  time.Millisecond,
			})
			go tc.prep(cl) // net.Pipe writes rendezvous with the reader
			done := make(chan error, 1)
			go func() {
				_, err := c.ReadRequest(50, 50)
				done <- err
			}()
			select {
			case err := <-done:
				if err != ErrDeadline {
					t.Fatalf("err = %v, want ErrDeadline from the wall backstop", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ReadRequest rode the stalled clock far past its 50ms wall budget")
			}
		})
	}
}

// TestNoAllocsParkResume pins the multiplexed front's per-cycle cost:
// a poll that would block, a staged response, its non-blocking write,
// the idle park, and a pooled-conn Reset must not allocate.  (Request
// parsing allocates by design — header strings escape into the Request —
// so the cycle under test is the state-machine overhead around it.)
func TestNoAllocsParkResume(t *testing.T) {
	c, peer := resumePair(t)
	scratch := make([]byte, 4096)
	drain := make([]byte, 4096)
	resp := Response{Status: 200, Body: []byte("ok")}
	cycle := func() {
		if _, err := c.PollRead(scratch, 100, 50); err != ErrWouldBlock {
			t.Fatalf("err = %v, want ErrWouldBlock", err)
		}
		c.StageResponses([]Response{resp}, true)
		if done, err := c.PollWrite(); err != nil || !done {
			t.Fatalf("PollWrite = (%v, %v)", done, err)
		}
		c.ParkIdle()
		c.Reset(nil, c.fd)
		syscall.Read(peer, drain)
	}
	cycle() // warm the staged-write buffer and the pooled render buffer
	resps := [1]Response{resp}
	perRun := func() {
		c.PollRead(scratch, 100, 50)
		c.StageResponses(resps[:], true)
		c.PollWrite()
		c.ParkIdle()
		c.Reset(nil, c.fd)
		syscall.Read(peer, drain)
	}
	if n := testing.AllocsPerRun(200, perRun); n != 0 {
		t.Errorf("park/resume cycle allocates %.1f times per run, want 0", n)
	}
}
