package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestSaturatingKeepAliveConnsAreNotStarved: more saturating keep-alive
// connections than procs, at a 50µs tick.  A worker whose client keeps
// the pipeline full never blocks in a read, so unless it yields between
// batches the other connections' workers (and the clock pump) starve:
// the starved connections meet their 100 ms tick budget unanswered, and
// when the pump finally runs the clock jumps and idle deadlines fire on
// connections that were never idle.  Every reply must be a 200 and the
// server must close nothing.
func TestSaturatingKeepAliveConnsAreNotStarved(t *testing.T) {
	ts := startServer(t, 2, Options{Tick: 50 * time.Microsecond}, nil)
	const conns, depth = 4, 8
	stop := time.Now().Add(1500 * time.Millisecond)
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		kc := dialKeepAlive(t, ts.addr())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; time.Now().Before(stop); round++ {
				for j := 0; j < depth; j++ {
					if err := kc.send("GET", fmt.Sprintf("/echo?msg=c%dr%dj%d", i, round, j), nil); err != nil {
						errs <- fmt.Errorf("conn %d round %d: send: %v", i, round, err)
						return
					}
				}
				for j := 0; j < depth; j++ {
					st, _, body, err := kc.recv(5 * time.Second)
					if want := fmt.Sprintf("c%dr%dj%d", i, round, j); err != nil || st != 200 || string(body) != want {
						errs <- fmt.Errorf("conn %d round %d reply %d: status %d body %q err %v", i, round, j, st, body, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReadErrResponseTaxonomy pins the one read-error taxonomy all three
// fronts share, over {error} × {served 0, >0} × {partial, empty buffer}.
func TestReadErrResponseTaxonomy(t *testing.T) {
	reset := errors.New("connection reset by peer")
	cases := []struct {
		err error
		// want[served>0][partial]: status owed, 0 for a silent close.
		want [2][2]int
	}{
		{ErrDeadline, [2][2]int{{504, 504}, {0, 504}}},
		{ErrAborted, [2][2]int{{0, 503}, {0, 503}}},
		{ErrTooLarge, [2][2]int{{413, 413}, {413, 413}}},
		{ErrBadRequest, [2][2]int{{400, 400}, {400, 400}}},
		{fmt.Errorf("wrapped: %w", ErrBadRequest), [2][2]int{{400, 400}, {400, 400}}},
		{io.EOF, [2][2]int{{0, 0}, {0, 0}}},
		{reset, [2][2]int{{0, 0}, {0, 0}}},
	}
	for _, tc := range cases {
		for si, served := range []int{0, 3} {
			for pi, partial := range []bool{false, true} {
				c := &Conn{}
				if partial {
					c.acc = []byte("GET /ec")
				}
				resp, ok := ReadErrResponse(c, served, tc.err)
				want := tc.want[si][pi]
				if ok != (want != 0) || resp.Status != want {
					t.Errorf("%v served=%d partial=%v: got (%d, %v), want status %d",
						tc.err, served, partial, resp.Status, ok, want)
				}
				if want == 503 && resp.RetryAfter != RetryAfterSeconds {
					t.Errorf("%v: 503 without Retry-After", tc.err)
				}
			}
		}
	}
}
