package shard

// Front parity: the single server, the fabric's connection-thread front
// and its multiplexed front must put the same bytes on the wire and
// make the same close-vs-keep-alive decision for the same client
// behaviour.  The first two run serve's one connection loop and the mux
// runs its resumable twin over the same gather and read-error taxonomy;
// this table is what holds the three together.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/serve"
	"repro/internal/threads"
)

// fixedStream is a Streamer over a fixed frame list: every frame is
// ready at once and the source then reports closed, so the chunked body
// is deterministic (no heartbeats, no timing).
type fixedStream struct{ frames [][]byte }

func (s *fixedStream) Pull() ([]byte, bool, bool) {
	if len(s.frames) == 0 {
		return nil, false, false
	}
	f := s.frames[0]
	s.frames = s.frames[1:]
	return f, true, true
}

func (s *fixedStream) Cancel() { s.frames = nil }

func streamHandler(*serve.Request) serve.Response {
	return serve.Response{Status: 200, Stream: &fixedStream{
		frames: [][]byte{[]byte("one\n"), []byte("two\n"), []byte("three\n")},
	}}
}

const (
	parityDeadline = 200 // ticks (ms): request budget, and the wait for a first request
	parityIdle     = 80  // ticks (ms): keep-alive idle budget
)

// parityFronts boots the three fronts with the same budgets and the
// same extra route, returning each one's address by name.
func parityFronts(t *testing.T) map[string]string {
	t.Helper()
	sys := threads.New(proc.New(2), threads.Options{})
	srv, err := serve.New(sys, serve.Options{DeadlineTicks: parityDeadline, KeepAliveIdleTicks: parityIdle})
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle("/stream", streamHandler)
	done := make(chan struct{})
	go func() {
		sys.Run(func() { srv.Serve() })
		close(done)
	}()
	t.Cleanup(func() {
		srv.Drain()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("single server did not quiesce after drain")
		}
	})
	fronts := map[string]string{"single": srv.Addr().String()}

	fabric := func(mux bool) string {
		return startFabric(t, Options{
			Shards: 2, Mux: mux, IdleScanTicks: 5, RebalanceTicks: NoRebalance,
			DeadlineTicks: parityDeadline, IdleTicks: parityIdle,
		}, func(fab *Fabric) { fab.Handle("/stream", streamHandler) }).addr()
	}
	fronts["conn-thread"] = fabric(false)
	if runtime.GOOS == "linux" { // the mux front reads raw fds through epoll
		fronts["mux"] = fabric(true)
	}
	return fronts
}

// replay writes script on a fresh connection and reads what comes back.
// With keepAlive == 0 it reads to EOF — the server must close.  With
// keepAlive == n it reads exactly n framed responses, then proves the
// connection is still open by getting one more /echo answered on it
// (the probe's response is part of the capture).
func replay(t *testing.T, addr string, script []byte, keepAlive int) []byte {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(script); err != nil {
		t.Fatal(err)
	}
	if keepAlive == 0 {
		raw, err := io.ReadAll(nc)
		if err != nil {
			t.Fatalf("connection not closed by the server: %v after %q", err, raw)
		}
		return raw
	}
	raw := readResponses(t, nc, nil, keepAlive)
	if _, err := nc.Write([]byte("GET /echo?msg=still-open HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("probe: %v", err)
	}
	return readResponses(t, nc, raw, keepAlive+1)
}

// readResponses reads nc onto raw until raw holds n complete
// Content-Length-framed responses.
func readResponses(t *testing.T, nc net.Conn, raw []byte, n int) []byte {
	t.Helper()
	buf := make([]byte, 4096)
	for {
		have, rest := 0, raw
		for {
			head, after, ok := bytes.Cut(rest, []byte("\r\n\r\n"))
			if !ok {
				break
			}
			_, cl, _ := bytes.Cut(head, []byte("\r\nContent-Length: "))
			cl, _, _ = bytes.Cut(cl, []byte("\r\n"))
			clen, err := strconv.Atoi(string(cl))
			if err != nil || len(after) < clen {
				break
			}
			have, rest = have+1, after[clen:]
		}
		if have >= n {
			return raw
		}
		m, err := nc.Read(buf)
		raw = append(raw, buf[:m]...)
		if err != nil {
			t.Fatalf("%d of %d responses, then %v; wire: %q", have, n, err, raw)
		}
	}
}

func TestFrontParity(t *testing.T) {
	get := func(path string, hdrs ...string) string {
		s := "GET " + path + " HTTP/1.1\r\nHost: t\r\n"
		for _, h := range hdrs {
			s += h + "\r\n"
		}
		return s + "\r\n"
	}
	scripts := []struct {
		name      string
		script    string
		keepAlive int      // responses after which the connection must still serve; 0: server closes
		want      []string // status + Connection header of each response (and the probe's), in order
	}{
		{"pipelined run of 3",
			get("/echo?msg=a") + get("/echo?msg=b") + get("/echo?msg=c"), 3,
			[]string{"200 keep-alive", "200 keep-alive", "200 keep-alive", "200 keep-alive"}},
		{"run ending in Connection: close, bytes behind it",
			get("/echo?msg=a") + get("/echo?msg=b", "Connection: close") + get("/echo?msg=never"), 0,
			[]string{"200 keep-alive", "200 close"}},
		{"malformed second head",
			get("/echo?msg=a") + "BOGUS\r\n\r\n" + get("/echo?msg=never"), 0,
			[]string{"200 keep-alive", "400 close"}},
		{"oversized Content-Length on the second head",
			get("/echo?msg=a") + "POST /echo HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 0,
			[]string{"200 keep-alive", "413 close"}},
		{"half a head, then silence past the deadline",
			"GET /echo?msg=a HTTP/1.1\r\nHo", 0,
			[]string{"504 close"}},
		{"one request, then idle past the keep-alive budget",
			get("/echo?msg=a"), 0,
			[]string{"200 keep-alive"}},
		{"stream mid-pipeline, responses ahead of and behind it",
			get("/echo?msg=ahead") + get("/stream") + get("/echo?msg=behind"), 0,
			[]string{"200 keep-alive", "200 close"}},
	}
	fronts := parityFronts(t)
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			ref := replay(t, fronts["single"], []byte(sc.script), sc.keepAlive)
			if got := statusAndConnection(ref); fmt.Sprint(got) != fmt.Sprint(sc.want) {
				t.Errorf("single server answered %q, want %q\nwire: %q", got, sc.want, ref)
			}
			for name, addr := range fronts {
				if name == "single" {
					continue
				}
				if got := replay(t, addr, []byte(sc.script), sc.keepAlive); !bytes.Equal(got, ref) {
					t.Errorf("%s front differs from the single server\n%s: %q\nsingle: %q", name, name, got, ref)
				}
			}
		})
	}
}

// statusAndConnection extracts "<status> <Connection value>" for every
// response head in a raw wire capture.
func statusAndConnection(raw []byte) []string {
	var out []string
	for _, block := range bytes.Split(raw, []byte("HTTP/1.1 "))[1:] {
		head, _, _ := bytes.Cut(block, []byte("\r\n\r\n"))
		status, _, _ := bytes.Cut(head, []byte(" "))
		_, conn, _ := bytes.Cut(head, []byte("\r\nConnection: "))
		conn, _, _ = bytes.Cut(conn, []byte("\r\n"))
		out = append(out, string(status)+" "+string(conn))
	}
	return out
}
