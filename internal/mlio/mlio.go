// Package mlio models the paper's multiprocessor I/O story (§3.4): "two
// procs may perform I/O operations simultaneously, possibly accessing the
// same runtime-system data structures.  MP takes no specific steps to
// prevent such conflicts since different clients may have different
// locking needs.  For instance, our CML implementation protects the data
// structures by a single global lock.  Other clients may wish to use
// finer-grained locking."
//
// A Runtime is the runtime system's I/O state: buffered streams whose
// buffer operations are deliberately unsynchronized, exactly like the
// 1993 runtime.  Clients choose a policy:
//
//   - Unlocked — raw runtime calls; concurrent writers may interleave
//     mid-record (the hazard §3.4 describes);
//   - GlobalLock — one lock around every runtime entry, the CML
//     prototype's choice;
//   - PerStream — finer-grained locking, one lock per stream.
//
// Tests demonstrate that the global-lock and per-stream policies keep
// records atomic while raw access does not (under the Go race detector
// the raw policy is also a *detected* data race, which is the point).
package mlio

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/spinlock"
)

// Stream is one buffered output stream inside the runtime; its methods
// are NOT synchronized, mirroring the 1993 runtime's C buffers.
type Stream struct {
	name  string
	buf   bytes.Buffer
	limit int // retain only the most recent records past this size; 0 keeps all
}

// Name returns the stream's name.
func (st *Stream) Name() string { return st.name }

// writeRecord appends one record byte-by-byte; the slow path is what
// makes unsynchronized interleaving observable.
func (st *Stream) writeRecord(rec []byte) {
	for _, b := range rec {
		st.buf.WriteByte(b)
	}
	st.buf.WriteByte('\n')
	if st.limit > 0 && st.buf.Len() > st.limit {
		// Drop the older half, up to and including a record boundary.
		old := st.buf.Next(st.buf.Len() - st.limit/2)
		if old[len(old)-1] != '\n' {
			st.buf.ReadBytes('\n')
		}
	}
}

// Runtime is the runtime-system I/O state shared by all procs.
type Runtime struct {
	streams map[string]*Stream
	meta    spinlock.Lock // guards the stream table only (runtime internal)
	limit   int           // every stream's retention bound; 0 keeps all
}

// NewRuntime returns an empty runtime I/O state.
func NewRuntime() *Runtime {
	return &Runtime{
		streams: make(map[string]*Stream),
		meta:    core.NewMutexLock(),
	}
}

// NewBounded returns a runtime whose streams each retain only their most
// recent records: once a stream passes limit bytes its older half is
// dropped at a record boundary.  A server's log is such a stream — a
// process that answers requests for as long as it runs must not hold
// every line it ever wrote — while the paper's programs, which read back
// everything they wrote, use NewRuntime.
func NewBounded(limit int) *Runtime {
	r := NewRuntime()
	r.limit = limit
	return r
}

// Open returns the named stream, creating it if needed.  The stream
// table itself is runtime-internal state and is always protected (§5:
// "a few remaining globals are shared under protection of internal mutex
// locks").
func (r *Runtime) Open(name string) *Stream {
	r.meta.Lock()
	defer r.meta.Unlock()
	st, ok := r.streams[name]
	if !ok {
		st = &Stream{name: name, limit: r.limit}
		r.streams[name] = st
	}
	return st
}

// Contents snapshots a stream's buffer.
func (r *Runtime) Contents(name string) []byte {
	r.meta.Lock()
	st := r.streams[name]
	r.meta.Unlock()
	if st == nil {
		return nil
	}
	return append([]byte(nil), st.buf.Bytes()...)
}

// Policy is a client locking discipline for runtime I/O.
type Policy interface {
	// Write emits one record to the named stream under the policy's
	// locking discipline.
	Write(st *Stream, rec []byte)
}

// Unlocked performs raw runtime calls with no client locking; concurrent
// records may interleave.
type Unlocked struct{}

// Write emits the record with no locking.
func (Unlocked) Write(st *Stream, rec []byte) { st.writeRecord(rec) }

// GlobalLock serializes every runtime I/O call through one lock, the CML
// prototype's policy.
type GlobalLock struct {
	lk core.Lock
}

// NewGlobalLock returns the single-global-lock policy.
func NewGlobalLock() *GlobalLock { return &GlobalLock{lk: core.NewMutexLock()} }

// Write emits the record under the global lock.
func (g *GlobalLock) Write(st *Stream, rec []byte) {
	g.lk.Lock()
	st.writeRecord(rec)
	g.lk.Unlock()
}

// PerStream locks each stream separately — the finer-grained discipline
// §3.4 anticipates for other clients.
type PerStream struct {
	mu    spinlock.Lock
	locks map[*Stream]core.Lock
}

// NewPerStream returns the per-stream locking policy.
func NewPerStream() *PerStream {
	return &PerStream{mu: core.NewMutexLock(), locks: make(map[*Stream]core.Lock)}
}

func (p *PerStream) lockFor(st *Stream) core.Lock {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.locks[st]
	if !ok {
		l = core.NewMutexLock()
		p.locks[st] = l
	}
	return l
}

// Write emits the record under the stream's own lock.
func (p *PerStream) Write(st *Stream, rec []byte) {
	l := p.lockFor(st)
	l.Lock()
	st.writeRecord(rec)
	l.Unlock()
}
