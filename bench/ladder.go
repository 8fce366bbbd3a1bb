package main

// The layer ladder: an in-process run where the harness itself plays
// the front's read → submit → collect → write cycle, calling only the
// pinned public functions of each layer and recording a span around
// every call.  Nothing inside the program is instrumented; a layer's
// cost is what its public entry points cost a caller.
//
// Pinned surface (README.md lists it too): core.NewMutexLock; proc.New;
// threads.New and System.Run/Fork/Yield; serve.New with
// Options{NoListener, Tick}; Server.Serve/Drain/Clock/Submit/
// SubmitMany/Handle; serve.NewConn, serve.NewBufPool and
// Conn.ReadRequest/ReadBuffered/WriteResponses.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/serve"
	"repro/internal/threads"
)

// span is one timed call (or, for nanosecond-scale calls, one chunk of
// ops calls).  Spans of one batch share a batch id; parent is the index
// of the enclosing span, -1 at top level.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int
	batch      int
	ops        int
}

// recorder keeps spans in memory until the ladder ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func (r *recorder) begin(name string, parent, batch, ops int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, batch: batch, ops: ops})
	id := len(r.spans) - 1
	r.spans[id].start = time.Since(r.origin)
	return id
}

func (r *recorder) finish(id int) { r.spans[id].end = time.Since(r.origin) }

// perOp is the mean nanoseconds per operation over every span of a name.
func (r *recorder) perOp(name string) float64 {
	var ns, ops float64
	for i := range r.spans {
		if s := &r.spans[i]; s.name == name {
			ns += float64(s.end - s.start)
			ops += float64(s.ops)
		}
	}
	return ratio(ns, ops)
}

// selfTimes is each span name's total duration minus the part its child
// spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for i := range r.spans {
		s := &r.spans[i]
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[r.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// traceSpansPerName caps what the trace file keeps of each rung; the
// metrics use every span.
const traceSpansPerName = 400

// writeTrace writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto): one complete ("X") event per span, one
// track per top-level rung, args carrying batch id, parent and ops.
func (r *recorder) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	kept := map[string]int{}
	tids := map[string]int{}
	for i := range r.spans {
		s := &r.spans[i]
		top := s
		for top.parent >= 0 {
			top = &r.spans[top.parent]
		}
		if top == s {
			if kept[s.name] >= traceSpansPerName {
				continue
			}
			kept[s.name]++
		} else if top.batch >= traceSpansPerName {
			continue
		}
		if _, ok := tids[top.name]; !ok {
			tids[top.name] = len(tids) + 1
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tids[top.name],
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"batch": s.batch, "parent": s.parent, "ops": s.ops},
		})
	}
	self := map[string]float64{}
	for name, d := range r.selfTimes() {
		self[name] = float64(d) / 1e3
	}
	b, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ns",
		"traceEvents":     events,
		"selfTimeUs":      self,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// memConn is the in-memory connection the parse and render rungs run
// against: reads drain a preloaded request blob, writes are counted and
// dropped.
type memConn struct {
	in      []byte
	written int
}

type memTimeout struct{}

func (memTimeout) Error() string   { return "memConn: no more input" }
func (memTimeout) Timeout() bool   { return true }
func (memTimeout) Temporary() bool { return true }

func (m *memConn) Read(p []byte) (int, error) {
	if len(m.in) == 0 {
		return 0, memTimeout{}
	}
	n := copy(p, m.in)
	m.in = m.in[n:]
	return n, nil
}
func (m *memConn) Write(p []byte) (int, error)      { m.written += len(p); return len(p), nil }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (m *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// withServer runs body on the root MP thread of a listener-less server
// (two procs, like -procs 2) and drains it afterwards.
func withServer(tick time.Duration, body func(sys *threads.System, srv *serve.Server)) error {
	sys := threads.New(proc.New(2), threads.Options{})
	srv, err := serve.New(sys, serve.Options{NoListener: true, Tick: tick})
	if err != nil {
		return err
	}
	sys.Run(func() {
		srv.Serve()
		body(sys, srv)
		srv.Drain()
	})
	return nil
}

// ladderBudgetTicks is the deadline budget, in ticks, the ladder hands every
// request it submits: far more than any rung needs.
const ladderBudgetTicks = 100_000

// submitOne submits one request and yields until its reply is delivered.
func submitOne(sys *threads.System, srv *serve.Server, path, query string) bool {
	var done atomic.Bool
	good := false
	req := &serve.Request{Method: "GET", Path: path, RawQuery: query, Proto: "HTTP/1.1"}
	if !srv.Submit(req, ladderBudgetTicks, func(r serve.Response) {
		good = r.Status == 200
		done.Store(true)
	}) {
		return false
	}
	for !done.Load() {
		sys.Yield()
	}
	return good
}

// ladder is one run of the rungs.
type ladder struct {
	rec   recorder
	slice time.Duration // time given to each rung
	conns int
	round round // one 16-request /echo batch, the unit every batch rung moves
	resp  int   // bytes that batch's 16 replies render to
	bad   []string
}

func (l *ladder) failf(format string, args ...any) {
	l.bad = append(l.bad, fmt.Sprintf(format, args...))
}

// repeat runs step until the rung's slice is spent (at least eight
// times), passing the iteration number.
func (l *ladder) repeat(step func(i int)) {
	end := time.Now().Add(l.slice)
	for i := 0; i < 8 || time.Now().Before(end); i++ {
		step(i)
	}
}

const lockChunk = 1000 // lock pairs per span: a pair is shorter than a clock read

func (l *ladder) spinlockUncontended() {
	lk := core.NewMutexLock()
	l.repeat(func(i int) {
		id := l.rec.begin("spinlock.pair", -1, i, lockChunk)
		for j := 0; j < lockChunk; j++ {
			lk.Lock()
			lk.Unlock()
		}
		l.rec.finish(id)
	})
}

// spinlockContended runs conns MP threads on as many procs against one
// lock; the figure is wall time per pair across all of them.
func (l *ladder) spinlockContended() {
	sys := threads.New(proc.New(l.conns), threads.Options{})
	lk := core.NewMutexLock()
	var stop atomic.Bool
	var pairs, running atomic.Int64
	hammer := func() {
		for !stop.Load() {
			for j := 0; j < lockChunk; j++ {
				lk.Lock()
				lk.Unlock()
			}
			pairs.Add(lockChunk)
			sys.Yield()
		}
		running.Add(-1)
	}
	id := 0
	sys.Run(func() {
		running.Store(int64(l.conns - 1))
		for i := 1; i < l.conns; i++ {
			sys.Fork(hammer)
		}
		id = l.rec.begin("spinlock.pair_contended", -1, 0, 0)
		end := time.Now().Add(l.slice)
		for time.Now().Before(end) {
			for j := 0; j < lockChunk; j++ {
				lk.Lock()
				lk.Unlock()
			}
			pairs.Add(lockChunk)
			sys.Yield()
		}
		stop.Store(true)
		for running.Load() > 0 {
			sys.Yield()
		}
		l.rec.finish(id)
	})
	l.rec.spans[id].ops = int(pairs.Load())
}

// threadsRungs times a yield (two threads trading one proc) and a
// fork+join (child runs to completion, parent resumes) — the refused-
// acquire path almost every fork on the serving path takes.
func (l *ladder) threadsRungs() {
	sys := threads.New(proc.New(1), threads.Options{})
	sys.Run(func() {
		var stop atomic.Bool
		sys.Fork(func() {
			for !stop.Load() {
				sys.Yield()
			}
		})
		const chunk = 100
		l.repeat(func(i int) {
			id := l.rec.begin("threads.yield", -1, i, 2*chunk) // each of ours lets the peer yield once too
			for j := 0; j < chunk; j++ {
				sys.Yield()
			}
			l.rec.finish(id)
		})
		stop.Store(true)
		sys.Yield()
		l.repeat(func(i int) {
			var done atomic.Bool
			id := l.rec.begin("threads.fork_join", -1, i, 1)
			sys.Fork(func() { done.Store(true) })
			for !done.Load() {
				sys.Yield()
			}
			l.rec.finish(id)
		})
	})
}

// clockRungs measures, at one tick length, the wall time of a one-tick
// park and of a depth-1 /echo, both submit → deliver.
func (l *ladder) clockRungs(tick time.Duration, suffix string) error {
	return withServer(tick, func(sys *threads.System, srv *serve.Server) {
		for _, rung := range []struct{ name, path, query string }{
			{"serve.park1." + suffix, "/park", "ticks=1"},
			{"serve.submit_rtt." + suffix, "/echo", "msg=ladder"},
		} {
			l.repeat(func(i int) {
				id := l.rec.begin(rung.name, -1, i, 1)
				good := submitOne(sys, srv, rung.path, rung.query)
				l.rec.finish(id)
				if !good {
					l.failf("%s: request %d was not answered 200", rung.name, i)
				}
			})
		}
	})
}

// readBatch parses every request of the blob now loaded into mc, the
// way the front does: one blocking read, then the buffered successors.
func readBatch(c *serve.Conn, srv *serve.Server, reqs []*serve.Request) ([]*serve.Request, error) {
	reqs = reqs[:0]
	req, err := c.ReadRequest(srv.Clock().Now()+ladderBudgetTicks, ladderBudgetTicks)
	for err == nil {
		reqs = append(reqs, req)
		var ok bool
		if req, ok, err = c.ReadBuffered(ladderBudgetTicks); !ok {
			break
		}
	}
	return reqs, err
}

// cycle plays the front for one batch after another on an MP thread of
// a 50us-tick server: parse 16 pipelined requests off the in-memory
// connection, SubmitMany them, yield until all 16 replies are in, write
// them back coalesced.  Each stage is a child span of the batch's cycle
// span; what the cycle span does not hand to a child is its self time.
func (l *ladder) cycle() error {
	return withServer(50*time.Microsecond, func(sys *threads.System, srv *serve.Server) {
		mc := &memConn{}
		c := serve.NewConn(mc, serve.ConnConfig{Clock: srv.Clock(), Park: func(int64) {}, Pool: serve.NewBufPool(2)})
		depth := len(l.round.want)
		reqs := make([]*serve.Request, 0, depth)
		resps := make([]serve.Response, depth)
		jobs := make([]serve.SubmitJob, depth)
		var pending atomic.Int64
		l.repeat(func(i int) {
			top := l.rec.begin("front.cycle", -1, i, depth)

			id := l.rec.begin("serve.parse", top, i, depth)
			mc.in = l.round.wire
			var err error
			reqs, err = readBatch(c, srv, reqs)
			l.rec.finish(id)
			if err != nil || len(reqs) != depth {
				l.failf("front.cycle: parsed %d of %d requests: %v", len(reqs), depth, err)
				return
			}

			id = l.rec.begin("serve.submit", top, i, depth)
			pending.Store(int64(depth))
			for j := range jobs {
				jobs[j] = serve.SubmitJob{Req: reqs[j], Remaining: ladderBudgetTicks, Deliver: func(r serve.Response) {
					resps[j] = r
					pending.Add(-1)
				}}
			}
			admitted := srv.SubmitMany(jobs)
			pending.Add(int64(admitted - depth))
			for pending.Load() > 0 {
				sys.Yield()
			}
			l.rec.finish(id)

			id = l.rec.begin("serve.render", top, i, depth)
			err = c.WriteResponses(resps[:admitted], srv.Clock().Now()+ladderBudgetTicks, true)
			l.rec.finish(id)
			l.rec.finish(top)

			if err != nil || admitted != depth {
				l.failf("front.cycle: admitted %d of %d, write: %v", admitted, depth, err)
			}
			for j := 0; j < admitted; j++ {
				if resps[j].Status != 200 || string(resps[j].Body) != string(l.round.want[j].body) {
					l.failf("front.cycle: reply %d of batch %d is wrong", j, i)
				}
			}
		})
	})
}

// connRungs times parse and render alone, off any scheduler, on one
// batch of requests, and counts their heap allocations per request.  It
// also reports how many bytes the batch's replies render to.
func (l *ladder) connRungs(r round, suffix string) (parseAllocs, renderAllocs float64, respBytes int, err error) {
	batch := len(r.want)
	sys := threads.New(proc.New(1), threads.Options{})
	srv, err := serve.New(sys, serve.Options{NoListener: true}) // never started: only its clock is used
	if err != nil {
		return 0, 0, 0, err
	}
	mc := &memConn{}
	c := serve.NewConn(mc, serve.ConnConfig{Clock: srv.Clock(), Park: func(int64) {}, Pool: serve.NewBufPool(1)})
	reqs := make([]*serve.Request, 0, batch)
	resps := make([]serve.Response, batch)
	for j := range resps {
		resps[j] = serve.Response{Status: 200, Body: r.want[j].body}
	}
	const chunk = 64
	var ms runtime.MemStats
	mallocs := func() float64 { runtime.ReadMemStats(&ms); return float64(ms.Mallocs) }

	var ops float64
	before := mallocs()
	l.repeat(func(i int) {
		id := l.rec.begin("serve.parse."+suffix, -1, i, chunk*batch)
		for j := 0; j < chunk; j++ {
			mc.in = r.wire
			if reqs, err = readBatch(c, srv, reqs); err != nil || len(reqs) != batch {
				l.failf("serve.parse.%s: parsed %d of %d: %v", suffix, len(reqs), batch, err)
			}
		}
		l.rec.finish(id)
		ops += chunk * float64(batch)
	})
	parseAllocs = (mallocs() - before) / ops

	ops = 0
	before = mallocs()
	l.repeat(func(i int) {
		id := l.rec.begin("serve.render."+suffix, -1, i, chunk*batch)
		for j := 0; j < chunk; j++ {
			if err := c.WriteResponses(resps, srv.Clock().Now()+ladderBudgetTicks, true); err != nil {
				l.failf("serve.render.%s: %v", suffix, err)
			}
		}
		l.rec.finish(id)
		ops += chunk * float64(batch)
	})
	renderAllocs = (mallocs() - before) / ops
	mc.written = 0
	c.WriteResponses(resps, srv.Clock().Now()+ladderBudgetTicks, true)
	return parseAllocs, renderAllocs, mc.written, nil
}

// netRung is the host's floor: a raw TCP peer in the harness that reads
// one batch's request bytes and answers with one batch's reply bytes.
func (l *ladder) netRung() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	reqLen, respLen := len(l.round.wire), l.resp
	var peer sync.WaitGroup
	peer.Add(1)
	go func() {
		defer peer.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		in, out := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(nc, in); err != nil {
				return
			}
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	in := make([]byte, respLen)
	l.repeat(func(i int) {
		id := l.rec.begin("net.loopback_rtt", -1, i, 1)
		_, werr := nc.Write(l.round.wire)
		_, rerr := io.ReadFull(nc, in)
		l.rec.finish(id)
		if werr != nil || rerr != nil {
			l.failf("net.loopback_rtt: %v %v", werr, rerr)
		}
	})
	nc.Close()
	peer.Wait()
	return nil
}

// ladderRungs is how many slices the in-process budget is cut into.
const ladderRungs = 14

// runLadder runs every rung, writes the span file, and returns the
// ladder metrics.  cfg shapes the two loopback children.
func runLadder(cfg runConfig, budget time.Duration, tracePath string) (map[string]value, error) {
	l := &ladder{
		rec:   recorder{origin: time.Now()},
		slice: budget / ladderRungs,
		conns: cfg.conns,
		round: echoRound(rand.New(rand.NewSource(1)), 16),
	}
	out := map[string]value{}
	set := func(name, unit string, v float64) { out[name] = value{v, unit} }

	pa, ra, respBytes, err := l.connRungs(l.round, "b16")
	if err != nil {
		return nil, err
	}
	l.resp = respBytes
	if _, _, _, err := l.connRungs(echoRound(rand.New(rand.NewSource(1)), 1), "b1"); err != nil {
		return nil, err
	}
	set("serve.parse_allocs", "count", pa)
	set("serve.render_allocs", "count", ra)
	set("serve.parse_ns.b1", "ns", l.rec.perOp("serve.parse.b1"))
	set("serve.render_ns.b1", "ns", l.rec.perOp("serve.render.b1"))

	if err := l.netRung(); err != nil {
		return nil, err
	}
	set("net.loopback_rtt_ns", "ns", l.rec.perOp("net.loopback_rtt"))

	l.spinlockUncontended()
	l.spinlockContended()
	set("spinlock.pair_ns", "ns", l.rec.perOp("spinlock.pair"))
	set("spinlock.pair_contended_ns", "ns", l.rec.perOp("spinlock.pair_contended"))

	l.threadsRungs()
	set("threads.yield_ns", "ns", l.rec.perOp("threads.yield"))
	set("threads.fork_join_ns", "ns", l.rec.perOp("threads.fork_join"))

	for _, t := range []struct {
		tick   time.Duration
		suffix string
	}{{time.Millisecond, "tick1ms"}, {50 * time.Microsecond, "tick50us"}} {
		if err := l.clockRungs(t.tick, t.suffix); err != nil {
			return nil, err
		}
		set("serve.park1_ns."+t.suffix, "ns", l.rec.perOp("serve.park1."+t.suffix))
		set("serve.submit_rtt_ns."+t.suffix, "ns", l.rec.perOp("serve.submit_rtt."+t.suffix))
	}

	if err := l.cycle(); err != nil {
		return nil, err
	}
	set("serve.parse_ns", "ns", l.rec.perOp("serve.parse"))
	set("serve.submit_ns", "ns", l.rec.perOp("serve.submit"))
	set("serve.render_ns", "ns", l.rec.perOp("serve.render"))

	if len(l.bad) > 0 {
		return nil, fmt.Errorf("ladder: %d wrong results, first: %s", len(l.bad), l.bad[0])
	}
	if err := l.rec.writeTrace(tracePath); err != nil {
		return nil, err
	}

	// The loopback rungs need real sockets: echo_hot's rounds against a
	// single server and against the two-shard fabric; their difference is
	// what the fabric's ring, reply group and front hand-off add.  Both
	// legs use two connections, one per proc: the single server gives
	// every connection a worker thread that never yields while requests
	// keep arriving, so more connections than procs starve each other
	// past the keep-alive budget and get closed.
	//
	// The single server runs at the default tick.  Its /echo path never
	// waits on the clock while requests keep arriving, so the tick does
	// not change its cost per request — but at -tick 50us its workers
	// starve the clock pump, the clock then jumps, and the tick-domain
	// keep-alive idle deadline (2000 ticks = 100 ms) silently closes
	// connections that were never idle.
	hot, _ := findWorkload("echo_hot")
	hot.conns = 2
	single := hot
	single.flags = []string{"-shards", "1", "-procs", "2"}
	var perReq [2]float64
	for i, wl := range []workload{single, hot} {
		res, err := runWorkload(cfg, wl)
		if err != nil {
			return nil, err
		}
		if len(res.Violations) > 0 || res.Failed > 0 {
			return nil, fmt.Errorf("ladder: loopback run %v: %d failed, %v", wl.flags, res.Failed, res.Violations)
		}
		perReq[i] = ratio(1e9, res.EndToEnd["rps"].Value)
	}
	set("serve.loopback_ns", "ns", perReq[0])
	set("shard.loopback_ns", "ns", perReq[1])
	set("shard.hop_ns", "ns", perReq[1]-perReq[0])
	explained := out["serve.parse_ns"].Value + out["serve.submit_ns"].Value + out["serve.render_ns"].Value + out["net.loopback_rtt_ns"].Value/16
	set("ladder.residual_ratio", "ratio", ratio(perReq[0]-explained, perReq[0]))
	// The single server handles /echo inline and never calls Submit, so
	// the same sum is also held against the path that does.
	set("ladder.fabric_residual_ratio", "ratio", ratio(perReq[1]-explained, perReq[1]))
	return out, nil
}
