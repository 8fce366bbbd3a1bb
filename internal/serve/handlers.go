package serve

// Built-in handlers: health, echo, a cancellable compute kernel, the
// five evaluation workloads as per-request parallel MP jobs, the
// observability endpoints (/metrics, /trace, /log).

import (
	"bytes"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/threads"
	"repro/internal/workloads"
)

// computeChunk is how many mixing rounds /compute runs between safe
// points (preemption check + deadline check).
const computeChunk = 1 << 14

func (srv *Server) installBuiltins() {
	srv.Handle("/healthz", handleHealth)
	srv.Handle("/echo", handleEcho)
	srv.Handle("/compute", handleCompute)
	srv.Handle("/park", handlePark)
	srv.Handle("/work/", srv.handleWork)
	srv.Handle("/metrics", srv.handleMetrics)
	srv.Handle("/trace", srv.handleTrace)
	srv.Handle("/log", srv.handleLog)
}

func handleHealth(req *Request) Response {
	return Response{Status: 200, Body: []byte("ok\n")}
}

// handleEcho returns the request body (or ?msg=... for GETs).
func handleEcho(req *Request) Response {
	body := req.Body
	if len(body) == 0 {
		body = []byte(req.Query("msg"))
	}
	return Response{Status: 200, Body: body}
}

// parkChunk bounds each cooperative sleep between safe points, so a
// long park stays responsive to deadline expiry and drain.
const parkChunk = 64

// handlePark sleeps ?ticks= on the shard's clock in bounded chunks —
// the I/O-bound workload: a parked request holds an in-flight seat but
// no proc, so a shard's throughput on /park is inflight/parktime
// regardless of its proc allowance.  That makes whole-shard scaling
// directly observable even on a small host: each member brings its own
// in-flight seats.
func handlePark(req *Request) Response {
	ticks := int64(req.QueryInt("ticks", 50))
	if ticks < 0 {
		ticks = 0
	}
	for done := int64(0); done < ticks; {
		step := int64(parkChunk)
		if rest := ticks - done; rest < step {
			step = rest
		}
		req.Park(step)
		done += step
		req.CheckPreempt()
		if req.Expired() {
			return Response{
				Status: 504,
				Body:   fmt.Appendf(nil, "cancelled at safe point after %d/%d ticks\n", done, ticks),
			}
		}
	}
	return Response{Status: 200, Body: fmt.Appendf(nil, "parked %d ticks\n", ticks)}
}

// handleCompute burns ?n=rounds of an integer mixing function, checking
// preemption and the request deadline every computeChunk rounds — the
// safe-point cancellation discipline long handlers follow.
func handleCompute(req *Request) Response {
	n := req.QueryInt("n", 1<<20)
	if n < 0 {
		n = 0
	}
	h := uint64(req.QueryInt("seed", 1)) | 1
	for done := 0; done < n; {
		step := computeChunk
		if rest := n - done; rest < step {
			step = rest
		}
		for i := 0; i < step; i++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
		}
		done += step
		req.CheckPreempt()
		if req.Expired() {
			return Response{
				Status: 504,
				Body:   fmt.Appendf(nil, "cancelled at safe point after %d/%d rounds\n", done, n),
			}
		}
	}
	return Response{Status: 200, Body: fmt.Appendf(nil, "%d rounds hash %d\n", n, h)}
}

// workKernel adapts one evaluation workload to query parameters, with
// problem sizes clamped so a single request stays bounded.
type workKernel struct {
	defaultN, maxN int
	run            func(s *threads.System, workers, n int, seed int64) int64
}

var workKernels = map[string]workKernel{
	"allpairs": {48, 128, workloads.Allpairs},
	"mst":      {120, 400, workloads.MST},
	"abisort":  {1 << 10, 1 << 13, workloads.Abisort},
	"simple": {48, 128, func(s *threads.System, workers, n int, seed int64) int64 {
		return workloads.Simple(s, workers, n, 1, seed)
	}},
	"mm": {48, 128, workloads.MM},
}

// handleWork runs one of the paper's evaluation kernels as a parallel MP
// job forked from the request's own thread: /work/<name>?n=&workers=&seed=.
// The kernels barrier internally, so each request briefly becomes a
// phased parallel program sharing procs with the rest of the server.
func (srv *Server) handleWork(req *Request) Response {
	name := req.Path[len("/work/"):]
	k, ok := workKernels[name]
	if !ok {
		return Response{Status: 404, Body: []byte("unknown kernel " + name + "\n")}
	}
	if req.Expired() {
		return Response{Status: 504, Body: []byte("deadline exceeded before kernel start\n")}
	}
	n := req.QueryInt("n", k.defaultN)
	if n < 1 {
		n = 1
	}
	if n > k.maxN {
		n = k.maxN
	}
	if name == "abisort" {
		// The bitonic network needs a power-of-two input size.
		p := 1
		for p*2 <= n {
			p *= 2
		}
		n = p
	}
	workers := req.QueryInt("workers", 2)
	if workers < 1 {
		workers = 1
	}
	if max := srv.pl.MaxProcs(); workers > max {
		workers = max
	}
	seed := int64(req.QueryInt("seed", 1))
	sum := k.run(srv.sys, workers, n, seed)
	return Response{
		Status: 200,
		Body:   fmt.Appendf(nil, "%s n=%d workers=%d checksum %d\n", name, n, workers, sum),
	}
}

// handleMetrics serves the unified metrics spine: the platform registry
// (proc, threads, serve), the process-wide default registry
// (sel/cml/spinlock), and any extra named registries the host wired in
// (the fabric front's, in sharded mode).
func (srv *Server) handleMetrics(req *Request) Response {
	var b bytes.Buffer
	b.WriteString("# platform registry\n")
	b.WriteString(srv.sys.Metrics().Snapshot().Format())
	b.WriteString("# default registry\n")
	b.WriteString(metrics.Default.Snapshot().Format())
	for _, nr := range srv.opts.ExtraMetrics {
		if nr.Reg == nil {
			continue
		}
		b.WriteString("# " + nr.Name + " registry\n")
		b.WriteString(nr.Reg.Snapshot().Format())
	}
	return Response{Status: 200, Body: b.Bytes()}
}

// handleLog serves the access log accumulated through mlio.
func (srv *Server) handleLog(req *Request) Response {
	return Response{Status: 200, Body: srv.AccessLog()}
}

// handleTrace serves a Chrome trace-event JSON snapshot of the tracer's
// rings.  The rings are single-writer and may only be read while
// emitters are quiescent, so this handler stops the serving world first:
//
//  1. it disables the tracer and raises the tracePause barrier, which
//     parks the acceptor at its loop top;
//  2. it waits (parking on the clock) until the acceptor is parked or
//     exited, the dispatcher is idle on the items semaphore or exited,
//     the accept queue is empty, and it is itself the only in-flight
//     request.  Every other emitter has by then either exited through
//     the state lock (workers decrement `active` after their last emit)
//     or parked after taking the state lock, so the lock handoffs order
//     all ring writes before the reads below;
//  3. it renders the JSON, lowers the barrier, and re-enables tracing.
//
// While the barrier is up no new item can enter the queue, so the
// dispatcher cannot wake: the quiescent state is stable for the whole
// read.  Concurrent /trace requests beyond the first are refused with
// 409; under sustained overload the wait is bounded by the in-flight
// requests' own deadlines.
func (srv *Server) handleTrace(req *Request) Response {
	if srv.tracer == nil {
		return Response{Status: 404, Body: []byte("no tracer attached\n")}
	}
	srv.state.Lock()
	if srv.tracePause {
		srv.state.Unlock()
		return Response{Status: 409, Body: []byte("trace snapshot already in progress\n")}
	}
	srv.tracePause = true
	srv.state.Unlock()
	InterruptAccept(srv.ln) // the acceptor is in the kernel: bring it to the barrier
	srv.tracer.Disable()
	for {
		if req.Expired() {
			// Give up rather than stall the world past our own deadline.
			srv.endTracePause()
			return Response{Status: 503, Body: []byte("could not quiesce before deadline\n"), RetryAfter: RetryAfterSeconds}
		}
		srv.state.Lock()
		quiet := (srv.acceptorIdle || srv.acceptorDone) &&
			(srv.dispatcherIdle || srv.dispatcherDone) &&
			srv.acceptQ.Len() == 0 &&
			srv.active == 1
		srv.state.Unlock()
		if quiet {
			break
		}
		srv.park(1)
	}
	var b bytes.Buffer
	err := srv.tracer.WriteChromeJSON(&b)
	srv.endTracePause()
	if err != nil {
		return Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return Response{Status: 200, ContentType: "application/json", Body: b.Bytes()}
}

func (srv *Server) endTracePause() {
	srv.tracer.Enable()
	srv.state.Lock()
	srv.tracePause = false
	srv.state.Unlock()
}
