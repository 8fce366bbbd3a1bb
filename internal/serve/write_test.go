package serve

// Reply-path write tests: renderResponse edge cases, the coalesced
// WriteResponses batch (flat and vectored), partial-write resumption and
// deadline aborts against a throttled fake conn, and the zero-alloc
// guarantees for the batched render and the request-body arena.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cml"
)

// wtimeout is a net.Error whose Timeout() is true — what a poll-window
// write deadline expiry looks like to writeAll/writeBuffers.
type wtimeout struct{}

func (wtimeout) Error() string   { return "i/o timeout" }
func (wtimeout) Timeout() bool   { return true }
func (wtimeout) Temporary() bool { return true }

// throttledConn is a fake net.Conn that accepts at most chunk bytes per
// Write before reporting a timeout — a stalling client — or refuses
// writes entirely (stall), so the cooperative write loops' partial-write
// resumption and deadline-abort paths can be driven deterministically.
type throttledConn struct {
	buf    bytes.Buffer
	chunk  int  // max bytes accepted per Write; 0 means unlimited
	stall  bool // refuse every write with a timeout
	writes int  // Write calls that accepted at least one byte
}

func (c *throttledConn) Write(p []byte) (int, error) {
	if c.stall {
		return 0, wtimeout{}
	}
	c.writes++
	if c.chunk > 0 && len(p) > c.chunk {
		c.buf.Write(p[:c.chunk])
		return c.chunk, wtimeout{}
	}
	c.buf.Write(p)
	return len(p), nil
}

func (c *throttledConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (c *throttledConn) Close() error                     { return nil }
func (c *throttledConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *throttledConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (c *throttledConn) SetDeadline(time.Time) error      { return nil }
func (c *throttledConn) SetReadDeadline(time.Time) error  { return nil }
func (c *throttledConn) SetWriteDeadline(time.Time) error { return nil }

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// testConn wires a Conn to a throttled fake: parks advance the private
// clock, so a deadline-capped write observably runs out of ticks.
func testConn(tc *throttledConn) (*Conn, *cml.Clock) {
	clk := cml.NewClock()
	cfg := ConnConfig{
		Clock: clk,
		Park:  func(ticks int64) { clk.Advance(nil, ticks) },
	}
	return NewConn(tc, cfg), clk
}

// ---------------------------------------------------------- render edges

func renderOne(resp Response, keepAlive bool) string {
	rb := &respBuf{}
	renderResponse(rb, resp, keepAlive)
	return rb.b.String()
}

func TestRenderResponseEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		resp      Response
		keepAlive bool
		want      []string
		reject    []string
	}{
		{
			name: "retry-after emitted when set",
			resp: Response{Status: 503, Body: []byte("busy\n"), RetryAfter: 7},
			want: []string{"HTTP/1.1 503 Service Unavailable\r\n", "\r\nRetry-After: 7\r\n", "\r\nConnection: close\r\n\r\nbusy\n"},
		},
		{
			name:   "no retry-after by default",
			resp:   Response{Status: 200, Body: []byte("ok")},
			reject: []string{"Retry-After"},
			want:   []string{"\r\nContent-Length: 2\r\n"},
		},
		{
			name: "empty body still frames content-length 0",
			resp: Response{Status: 404},
			want: []string{"HTTP/1.1 404 Not Found\r\n", "\r\nContent-Length: 0\r\n", "\r\nConnection: close\r\n\r\n"},
		},
		{
			name:      "custom content type overrides the default",
			resp:      Response{Status: 200, ContentType: "application/json", Body: []byte("{}")},
			keepAlive: true,
			want:      []string{"\r\nContent-Type: application/json\r\n", "\r\nConnection: keep-alive\r\n\r\n{}"},
			reject:    []string{"text/plain"},
		},
		{
			name: "status without canned text gets the generic reason",
			resp: Response{Status: 299, Body: []byte("x")},
			want: []string{"HTTP/1.1 299 Status\r\n"},
		},
	}
	for _, tc := range cases {
		got := renderOne(tc.resp, tc.keepAlive)
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: rendered %q lacks %q", tc.name, got, w)
			}
		}
		for _, r := range tc.reject {
			if strings.Contains(got, r) {
				t.Errorf("%s: rendered %q must not contain %q", tc.name, got, r)
			}
		}
	}
}

// ------------------------------------------------- cooperative write loops

// TestWriteAllResumesPartialWrites drips a response through a conn that
// takes 7 bytes per write: writeAll must park and resume until the whole
// rendered response is on the wire, byte-identical to an unthrottled one.
func TestWriteAllResumesPartialWrites(t *testing.T) {
	tc := &throttledConn{chunk: 7}
	c, _ := testConn(tc)
	resp := Response{Status: 200, Body: []byte("partial-write resumption body")}
	if err := c.WriteResponse(resp, 1_000_000, true); err != nil {
		t.Fatal(err)
	}
	if got, want := tc.buf.String(), renderOne(resp, true); got != want {
		t.Errorf("throttled write produced %q, want %q", got, want)
	}
	if tc.writes < 2 {
		t.Errorf("throttle did not engage (%d writes); the test exercised nothing", tc.writes)
	}
}

// TestWriteAllAbortsAtCapTick stalls the conn entirely: every park burns
// a tick, so the write must give up with ErrDeadline at capTick instead
// of spinning forever.
func TestWriteAllAbortsAtCapTick(t *testing.T) {
	tc := &throttledConn{stall: true}
	c, clk := testConn(tc)
	err := c.WriteResponse(Response{Status: 200, Body: []byte("never lands")}, clk.Now()+25, false)
	if err != ErrDeadline {
		t.Fatalf("stalled write returned %v, want ErrDeadline", err)
	}
}

// TestWriteResponsesCoalescesBatch checks the flat path: a batch lands
// with one socket write, every response but the last is keep-alive (more
// of the batch follows by construction), the last takes the caller's
// decision, and the hook reports the batch size.
func TestWriteResponsesCoalescesBatch(t *testing.T) {
	tc := &throttledConn{}
	c, _ := testConn(tc)
	var hooked int
	c.cfg.OnWriteBatch = func(n int) { hooked = n }
	batch := []Response{
		{Status: 200, Body: []byte("first")},
		{Status: 404, Body: []byte("second")},
		{Status: 200, Body: []byte("third")},
	}
	if err := c.WriteResponses(batch, 1_000_000, false); err != nil {
		t.Fatal(err)
	}
	want := renderOne(batch[0], true) + renderOne(batch[1], true) + renderOne(batch[2], false)
	if got := tc.buf.String(); got != want {
		t.Errorf("batched write produced %q, want %q", got, want)
	}
	if tc.writes != 1 {
		t.Errorf("batch took %d socket writes, want 1", tc.writes)
	}
	if hooked != len(batch) {
		t.Errorf("OnWriteBatch reported %d, want %d", hooked, len(batch))
	}
}

// TestWriteResponsesVectoredLargeBodies pushes the batch's body volume
// past vectoredWriteBytes so the iovec path runs, against a throttled
// conn so partial vectored writes must resume mid-buffer.  The wire
// bytes must still be exactly the concatenated rendered responses.
func TestWriteResponsesVectoredLargeBodies(t *testing.T) {
	big := bytes.Repeat([]byte("v"), vectoredWriteBytes)
	batch := []Response{
		{Status: 200, Body: big},
		{Status: 200, ContentType: "application/octet-stream", Body: []byte("tail")},
	}
	want := renderOne(batch[0], true) + renderOne(batch[1], true)

	tc := &throttledConn{chunk: 10_000}
	c, _ := testConn(tc)
	if err := c.WriteResponses(batch, 1_000_000, true); err != nil {
		t.Fatal(err)
	}
	if got := tc.buf.String(); got != want {
		t.Errorf("vectored write produced %d bytes (first 80: %q), want %d (%q)",
			len(got), got[:min(80, len(got))], len(want), want[:80])
	}
	if tc.writes < 2 {
		t.Errorf("throttle did not engage (%d writes)", tc.writes)
	}

	// And the stall-abort discipline holds on the vectored path too.
	ts := &throttledConn{stall: true}
	cs, clk := testConn(ts)
	if err := cs.WriteResponses(batch, clk.Now()+25, true); err != ErrDeadline {
		t.Fatalf("stalled vectored write returned %v, want ErrDeadline", err)
	}
}

// TestWriteResponsesEmptyBatch: nothing to write must be a no-op, not a
// render of zero responses.
func TestWriteResponsesEmptyBatch(t *testing.T) {
	tc := &throttledConn{}
	c, _ := testConn(tc)
	called := false
	c.cfg.OnWriteBatch = func(int) { called = true }
	if err := c.WriteResponses(nil, 10, true); err != nil {
		t.Fatal(err)
	}
	if tc.buf.Len() != 0 || tc.writes != 0 || called {
		t.Errorf("empty batch touched the socket (%d bytes, %d writes, hook=%v)",
			tc.buf.Len(), tc.writes, called)
	}
}

// ------------------------------------------------------------ zero alloc

// TestNoAllocsBatchedRender: in the steady state (pool warm, fake-conn
// buffer grown) writing a whole batch — render, coalesce, socket write —
// allocates nothing, on both the flat and the vectored path.
func TestNoAllocsBatchedRender(t *testing.T) {
	pool := NewBufPool(4)
	tc := &throttledConn{}
	clk := cml.NewClock()
	c := NewConn(tc, ConnConfig{Clock: clk, Park: func(int64) {}, Pool: pool})

	flat := []Response{
		{Status: 200, Body: []byte("alpha")},
		{Status: 200, Body: []byte("beta")},
		{Status: 404, Body: []byte("gamma")},
	}
	big := bytes.Repeat([]byte("v"), vectoredWriteBytes)
	vectored := []Response{{Status: 200, Body: big}, {Status: 200, Body: []byte("tail")}}

	for name, batch := range map[string][]Response{"flat": flat, "vectored": vectored} {
		batch := batch
		run := func() {
			tc.buf.Reset()
			if err := c.WriteResponses(batch, 1_000_000, true); err != nil {
				panic(err)
			}
		}
		run() // warm: grows the pooled buffer, iovec, and conn scratch
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s batched write allocates %.1f times per batch, want 0", name, n)
		}
	}
}

// TestNoAllocsRequestBodyIngest: the arena replaces the per-request
// `append([]byte(nil), …)` body copy; once grown to the batch's size it
// must serve a full batch of body takes without touching the heap.
func TestNoAllocsRequestBodyIngest(t *testing.T) {
	c := &Conn{cfg: ConnConfig{Clock: cml.NewClock()}}
	payload := []byte("0123456789abcdef0123456789abcdef")
	total := 0
	ingest := func() {
		c.arena = c.arena[:0] // what each blocking ReadRequest does
		for i := 0; i < 16; i++ {
			c.acc = append(c.acc[:0], payload...)
			total += len(c.takeBody(4, len(payload)))
		}
	}
	ingest() // grow the arena to the batch's steady-state footprint
	if n := testing.AllocsPerRun(200, ingest); n != 0 {
		t.Errorf("steady-state body ingest allocates %.1f times per batch, want 0", n)
	}
	if total == 0 {
		t.Fatal("ingest moved no bytes")
	}
}

// TestArenaBodiesSurviveMidBatchGrowth: when the arena reallocates while
// a batch is mid-flight, bodies handed out earlier must stay intact (they
// keep the old backing array) and be capacity-clipped so a later append
// cannot scribble on a neighbor.
func TestArenaBodiesSurviveMidBatchGrowth(t *testing.T) {
	c := &Conn{cfg: ConnConfig{Clock: cml.NewClock()}}
	var bodies [][]byte
	for i := 0; i < 64; i++ {
		// Growing payloads force repeated arena reallocation mid-batch.
		payload := bytes.Repeat([]byte(fmt.Sprintf("%02d", i)), 8*(i+1))
		c.acc = append(c.acc[:0], payload...)
		bodies = append(bodies, c.takeBody(0, len(payload)))
	}
	for i, b := range bodies {
		want := bytes.Repeat([]byte(fmt.Sprintf("%02d", i)), 8*(i+1))
		if !bytes.Equal(b, want) {
			t.Fatalf("body %d corrupted after arena growth: %q", i, b[:min(16, len(b))])
		}
		if cap(b) != len(b) {
			t.Errorf("body %d not capacity-clipped (len %d cap %d)", i, len(b), cap(b))
		}
	}
}
