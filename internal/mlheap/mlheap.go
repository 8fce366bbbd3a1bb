// Package mlheap is an SML/NJ-style heap: a word-addressed, two-generation
// copying memory manager reproducing the design the paper adapts for
// multiprocessing (§5):
//
//   - allocation is performed by in-line bump allocation ("approximately
//     one word per every 3-7 instructions"), so it must be synchronization
//     free: each proc allocates into a separate chunk of the shared
//     allocation region (the nursery);
//   - when one proc fills its share of the allocation region, it "steals"
//     spare memory from other procs — here, chunks beyond its initial
//     share of the common pool;
//   - when the region is completely filled, procs synchronize at clean
//     points and the collection is performed by one of them, sequentially;
//     afterwards the allocation region is redivided;
//   - a store list (SML/NJ's write barrier for ref assignment) records
//     old-to-young pointers so minor collections need not scan the old
//     generation.
//
// The object model is ML-like: a Value is either a tagged immediate
// integer or a pointer to a heap record of Values.  Records are mutable
// through Set, which applies the store-list barrier.
package mlheap

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Value is a tagged word: immediates carry the low bit set, pointers are
// word indices shifted left.
type Value uint64

// Nil is the null pointer value (index 0 is never allocated).
const Nil Value = 0

// Int makes an immediate integer value.
func Int(i int64) Value { return Value(uint64(i)<<1 | 1) }

// IsInt reports whether v is an immediate integer.
func (v Value) IsInt() bool { return v&1 == 1 }

// Int returns the immediate integer in v.
func (v Value) Int() int64 {
	if !v.IsInt() {
		panic("mlheap: Int on pointer value")
	}
	return int64(v) >> 1
}

// IsPtr reports whether v is a non-nil heap pointer.
func (v Value) IsPtr() bool { return v != Nil && v&1 == 0 }

func ptrTo(idx uint64) Value { return Value(idx << 1) }
func (v Value) addr() uint64 { return uint64(v) >> 1 }

// header encoding: length<<2 | tag, where tag 0 is a scanned record, 2 is
// an unscanned byte object (SML/NJ strings — the paper notes string
// allocation is one of the runtime's assembly helpers), and bit 0 set
// marks a forwarded object whose new address is header>>2.
const (
	hdrForward = 1
	hdrBytes   = 2
)

// ErrNeedGC reports that the allocation region is exhausted (even after
// stealing): the client must synchronize procs at clean points and call
// Collect.
var ErrNeedGC = errors.New("mlheap: allocation region exhausted; collection required")

// Config sizes the heap.
type Config struct {
	NurseryWords int // the shared allocation region
	SemiWords    int // each old-generation semispace
	ChunkWords   int // per-refill chunk carved from the nursery
	Procs        int // number of allocating procs
	// RegionWords sizes the private to-space bump regions parallel
	// collectors grab from the shared top pointer — the collection-time
	// analogue of the nursery's ChunkWords (default 512, clamped to
	// SemiWords).  Irrelevant to the sequential collector.
	RegionWords int
}

// Stats counts heap activity.  It is a merged view of the heap's
// metrics registry (plus the LiveWords gauge).
//
// AllocatedWords is derived from the procs' bump pointers when a chunk is
// retired (see ProcAlloc), never tallied per allocation: it is exact at
// every chunk boundary, collection stop and ReleaseProcAlloc, and between
// those lags the truth by at most one partly-filled chunk (ChunkWords, or
// one oversized object) per registered proc.
type Stats struct {
	AllocatedWords int64 // total words allocated, as of each proc's last chunk retirement
	MinorGCs       int
	MajorGCs       int
	Escalations    int   // minor collections escalated to full
	CopiedWords    int64 // words copied by collections
	Steals         int64 // chunk refills beyond a proc's initial share
	LiveWords      int64 // live words in the old generation after last GC
}

// heapMetrics caches the heap's counter handles.  None of them is touched
// per allocation: even an atomic add on a proc-private cache line is a
// locked read-modify-write — a full barrier and ~20 cycles a cons cell —
// on exactly the path §5 demands be synchronization free.  allocWords is
// published by ProcAlloc.retire, once per chunk; the collection counters
// are added once per collection from the collector's own tally.
type heapMetrics struct {
	allocWords  *metrics.Counter
	steals      *metrics.Counter
	minorGCs    *metrics.Counter
	majorGCs    *metrics.Counter
	copiedWords *metrics.Counter
	escalations *metrics.Counter   // minor collections escalated to full
	parCopied   *metrics.Histogram // words copied per collector per parallel collection
}

// Heap is a two-generation copying heap shared by several procs.
type Heap struct {
	cfg Config

	words []uint64

	// Layout: [nursery | semiA | semiB]; index 0 is reserved so that a
	// pointer value of 0 can mean nil.
	nurLo, nurHi   uint64
	semiA, semiB   uint64
	fromLo, fromHi uint64 // current old semispace bounds
	toLo           uint64
	oldTop         uint64 // allocation point in the old generation

	mu        sync.Mutex
	nextChunk uint64 // next unissued nursery chunk
	allocs    []*ProcAlloc
	free      []*ProcAlloc // released allocator slots available for reuse
	stores    []store      // global store list (slow-path Heap.Set fallback)

	reg       *metrics.Registry
	m         heapMetrics
	liveWords int64 // gauge, written only under the collection stop
	liveAcct  int64 // live words by copy accounting (excludes parallel fillers)

	// plan is the reusable parallel collection scratch (roots, store
	// list, work pool).  Touched only by the collection coordinator
	// under the stop; reuse keeps StartCollect allocation-free in
	// steady state (see parallel.go's package comment).
	plan *Collection
}

type store struct {
	obj  uint64 // header index of the old object
	slot int
}

// New builds a heap.
func New(cfg Config) *Heap {
	if cfg.ChunkWords <= 0 || cfg.NurseryWords < cfg.ChunkWords || cfg.SemiWords <= 0 || cfg.Procs < 1 {
		panic("mlheap: bad config")
	}
	if cfg.RegionWords <= 0 {
		cfg.RegionWords = 512
	}
	if cfg.RegionWords > cfg.SemiWords {
		cfg.RegionWords = cfg.SemiWords
	}
	total := 1 + cfg.NurseryWords + 2*cfg.SemiWords
	h := &Heap{
		cfg:   cfg,
		words: make([]uint64, total),
		reg:   metrics.NewRegistry(cfg.Procs),
	}
	h.m = heapMetrics{
		allocWords:  h.reg.Counter("mlheap.alloc_words"),
		steals:      h.reg.Counter("mlheap.steals"),
		minorGCs:    h.reg.Counter("mlheap.minor_gcs"),
		majorGCs:    h.reg.Counter("mlheap.major_gcs"),
		copiedWords: h.reg.Counter("mlheap.copied_words"),
		escalations: h.reg.Counter("mlheap.gc_escalations"),
		parCopied: h.reg.Histogram("mlheap.par_copied_words",
			[]int64{64, 256, 1024, 4096, 16384, 65536, 1 << 18, 1 << 20}),
	}
	h.nurLo = 1
	h.nurHi = h.nurLo + uint64(cfg.NurseryWords)
	h.semiA = h.nurHi
	h.semiB = h.semiA + uint64(cfg.SemiWords)
	h.fromLo, h.fromHi = h.semiA, h.semiB
	h.toLo = h.semiB
	h.oldTop = h.fromLo
	h.nextChunk = h.nurLo
	return h
}

// Stats returns a merged snapshot of heap counters.  The counter reads
// are lock-free; only the LiveWords gauge takes the heap mutex.  It reads
// no proc's bump pointer, so it is safe (and -race clean) while procs
// allocate; AllocatedWords carries the lag documented on Stats.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	live := h.liveWords
	h.mu.Unlock()
	return Stats{
		AllocatedWords: h.m.allocWords.Value(),
		MinorGCs:       int(h.m.minorGCs.Value()),
		MajorGCs:       int(h.m.majorGCs.Value()),
		Escalations:    int(h.m.escalations.Value()),
		CopiedWords:    h.m.copiedWords.Value(),
		Steals:         h.m.steals.Value(),
		LiveWords:      live,
	}
}

// Metrics exposes the heap's registry for unified snapshots.
func (h *Heap) Metrics() *metrics.Registry { return h.reg }

// ProcAlloc is one proc's bump allocator over its current nursery chunk,
// plus the proc's private store buffer: the old-to-young write barrier
// appends here with no synchronization at all — the paper's requirement
// that the allocation-adjacent fast paths be synchronization-free — and
// the buffer is drained into the collection's root set at the stop.
//
// Allocation inside a chunk is compare, bump, store header, store slots:
// it writes no word outside the chunk and this struct.  The words it
// allocated are accounted when the chunk is retired — replaced by refill
// (or found unreplaceable: region exhausted), zeroed by a collection's
// resetNursery, or handed back by ReleaseProcAlloc — as cur − mark.
type ProcAlloc struct {
	h          *Heap
	idx        int // allocator index: the proc's metrics shard
	cur, limit uint64
	mark       uint64 // cur at the last retirement: [mark, cur) is not yet in alloc_words
	share      int    // chunks this proc may take before refills count as steals
	taken      int
	stores     []store // private store buffer, drained at collection time
}

// NewProcAlloc registers a per-proc allocator; call once per proc.  It
// reuses a slot released by ReleaseProcAlloc before minting a new one,
// and panics when the configured proc count is exhausted.
func (h *Heap) NewProcAlloc() *ProcAlloc {
	pa := h.TryNewProcAlloc()
	if pa == nil {
		panic("mlheap: more proc allocators than configured procs")
	}
	return pa
}

// TryNewProcAlloc is NewProcAlloc returning nil instead of panicking
// when all Config.Procs allocator slots are registered and none are
// free — the admission form a server uses to park-and-retry.
func (h *Heap) TryNewProcAlloc() *ProcAlloc {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.free); n > 0 {
		pa := h.free[n-1]
		h.free = h.free[:n-1]
		return pa
	}
	if len(h.allocs) >= h.cfg.Procs {
		return nil
	}
	pa := &ProcAlloc{
		h:     h,
		idx:   len(h.allocs),
		share: h.cfg.NurseryWords / h.cfg.ChunkWords / h.cfg.Procs,
	}
	h.allocs = append(h.allocs, pa)
	return pa
}

// ReleaseProcAlloc returns an allocator slot to the pool for a later
// TryNewProcAlloc.  The slot's private store buffer is flushed to the
// global list so barrier entries recorded by the departing proc are not
// lost; its unexhausted nursery chunk stays with the slot and is resumed
// by the next taker (or reclaimed at the next collection's redivide).
// The words allocated in that chunk so far are accounted here, so the
// resuming taker starts from a clean mark and counts only its own.
func (h *Heap) ReleaseProcAlloc(pa *ProcAlloc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pa.retire()
	if len(pa.stores) > 0 {
		h.stores = append(h.stores, pa.stores...)
		pa.stores = pa.stores[:0]
	}
	h.free = append(h.free, pa)
}

// retire publishes the words allocated since the last retirement to the
// proc's alloc_words shard.  Callers either are the owning proc or hold
// it stopped (collection stop, release), so cur is read without a race.
func (pa *ProcAlloc) retire() {
	pa.h.m.allocWords.Add(pa.idx, int64(pa.cur-pa.mark))
	pa.mark = pa.cur
}

// refill retires the current chunk and takes the next one from the shared
// region; refills past the proc's initial share are accounted as steals
// of other procs' spare memory.  The retirement happens even when the
// region is exhausted, so alloc_words is exact once every proc has seen
// ErrNeedGC.
func (pa *ProcAlloc) refill(need int) bool {
	h := pa.h
	h.mu.Lock()
	defer h.mu.Unlock()
	pa.retire()
	chunk := uint64(h.cfg.ChunkWords)
	if uint64(need) > chunk {
		chunk = uint64(need)
	}
	if h.nextChunk+chunk > h.nurHi {
		return false
	}
	pa.cur, pa.mark = h.nextChunk, h.nextChunk
	pa.limit = h.nextChunk + chunk
	h.nextChunk += chunk
	pa.taken++
	if pa.taken > pa.share {
		h.m.steals.Inc(pa.idx)
	}
	return true
}

// AllocRecord allocates a record with the given slots in the calling
// proc's nursery chunk.  It returns ErrNeedGC when the whole allocation
// region is exhausted; the client must then reach a clean point on every
// proc and call Collect.
func (pa *ProcAlloc) AllocRecord(slots ...Value) (Value, error) {
	need := len(slots) + 1
	if pa.cur+uint64(need) > pa.limit {
		if !pa.refill(need) {
			return Nil, ErrNeedGC
		}
	}
	h := pa.h
	idx := pa.cur
	pa.cur += uint64(need)
	h.words[idx] = uint64(len(slots)) << 2
	for i, s := range slots {
		h.words[idx+1+uint64(i)] = uint64(s)
	}
	return ptrTo(idx), nil
}

// AllocBytes allocates an unscanned byte object (an ML string) in the
// calling proc's nursery chunk, returning ErrNeedGC when the region is
// exhausted.  Layout: header (tagged hdrBytes), one word holding the
// byte length, then the packed data words — self-describing, so the
// copying collector moves it without a side table and the scan loops
// skip its payload.
func (pa *ProcAlloc) AllocBytes(data []byte) (Value, error) {
	dataWords := (len(data) + 7) / 8
	need := dataWords + 2 // header + length word + data
	if pa.cur+uint64(need) > pa.limit {
		if !pa.refill(need) {
			return Nil, ErrNeedGC
		}
	}
	h := pa.h
	idx := pa.cur
	pa.cur += uint64(need)
	h.words[idx] = uint64(dataWords+1)<<2 | hdrBytes
	h.words[idx+1] = uint64(len(data))
	for i := 0; i < dataWords; i++ {
		var w uint64
		for j := 0; j < 8; j++ {
			if k := i*8 + j; k < len(data) {
				w |= uint64(data[k]) << (8 * uint(j))
			}
		}
		h.words[idx+2+uint64(i)] = w
	}
	return ptrTo(idx), nil
}

// Bytes returns a copy of a byte object's contents.
func (h *Heap) Bytes(v Value) []byte {
	a := v.addr()
	hdr := h.words[a]
	if hdr&hdrBytes == 0 {
		panic("mlheap: Bytes of non-byte object")
	}
	n := h.words[a+1]
	out := make([]byte, n)
	for k := range out {
		w := h.words[a+2+uint64(k/8)]
		out[k] = byte(w >> (8 * uint(k%8)))
	}
	return out
}

// IsBytes reports whether v is a byte object.
func (h *Heap) IsBytes(v Value) bool {
	return v.IsPtr() && h.words[v.addr()]&hdrBytes != 0
}

// Len returns the number of slots in the record v.
func (h *Heap) Len(v Value) int {
	if !v.IsPtr() {
		panic("mlheap: Len of non-pointer")
	}
	return int(h.words[v.addr()] >> 2)
}

// Get reads slot i of record v.
func (h *Heap) Get(v Value, i int) Value {
	a := v.addr()
	if h.words[a]&hdrBytes != 0 {
		panic("mlheap: Get on byte object")
	}
	n := int(h.words[a] >> 2)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("mlheap: Get slot %d of %d-slot record", i, n))
	}
	return Value(h.words[a+1+uint64(i)])
}

// Set writes slot i of record v, applying the store-list write barrier
// when an old-generation object is made to point into the nursery.
// This form appends to the global store list under the heap mutex; procs
// on the hot path use ProcAlloc.Set, whose barrier is a lock-free append
// to the proc's private buffer.
func (h *Heap) Set(v Value, i int, x Value) {
	a := h.setChecked(v, i, x)
	if h.isOld(a) && x.IsPtr() && h.inNursery(x.addr()) {
		h.mu.Lock()
		h.stores = append(h.stores, store{obj: a, slot: i})
		h.mu.Unlock()
	}
}

// setChecked validates and performs the slot write, returning the
// record's header index for the barrier check.
func (h *Heap) setChecked(v Value, i int, x Value) uint64 {
	a := v.addr()
	if h.words[a]&hdrBytes != 0 {
		panic("mlheap: Set on byte object")
	}
	n := int(h.words[a] >> 2)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("mlheap: Set slot %d of %d-slot record", i, n))
	}
	h.words[a+1+uint64(i)] = uint64(x)
	return a
}

// Set writes slot i of record v through this proc's allocator: the
// old-to-young barrier appends to the proc's private store buffer with
// no lock — §5's synchronization-free assignment path.  The buffer is
// drained into the root set when the world stops to collect.
func (pa *ProcAlloc) Set(v Value, i int, x Value) {
	h := pa.h
	a := h.setChecked(v, i, x)
	if h.isOld(a) && x.IsPtr() && h.inNursery(x.addr()) {
		pa.stores = append(pa.stores, store{obj: a, slot: i})
	}
}

// drainStores moves every proc's private store buffer into the global
// list and returns it.  Called only at a collection stop, when no proc
// is mutating; the clean-point barrier the caller runs provides the
// happens-before edge that makes the plain buffer reads safe.
func (h *Heap) drainStores() []store {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, pa := range h.allocs {
		if len(pa.stores) > 0 {
			h.stores = append(h.stores, pa.stores...)
			pa.stores = pa.stores[:0]
		}
	}
	return h.stores
}

func (h *Heap) inNursery(a uint64) bool { return a >= h.nurLo && a < h.nurHi }
func (h *Heap) isOld(a uint64) bool     { return a >= h.semiA }

// NurseryFree reports the unissued words remaining in the allocation
// region (chunks already issued to procs are not counted).
func (h *Heap) NurseryFree() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.nurHi - h.nextChunk)
}

// Collect performs a sequential stop-the-world collection.  The caller
// is responsible for the clean-point protocol: no proc may allocate or
// touch the heap during the call.  Roots are updated in place.  A minor
// collection copies live nursery data into the old generation; if the
// old generation then exceeds half its semispace, a major collection
// copies it to the other semispace.  When the old generation lacks room
// for even the worst-case minor survivor set, the minor collection
// escalates to a full collection (nursery and old generation copied
// together into the other semispace) instead of failing.
//
// The parallel counterpart is StartCollect/Run in parallel.go; this
// sequential collector remains the ablation baseline.
func (h *Heap) Collect(roots []*Value) {
	h.drainStores()
	if h.minorCapacityShort() {
		h.full(roots)
	} else {
		h.minor(roots)
		if h.oldTop-h.fromLo > uint64(h.cfg.SemiWords)/2 {
			h.major(roots)
		}
	}
	h.mu.Lock()
	h.liveWords = h.liveAcct
	h.mu.Unlock()
}

// issuedWords is the number of nursery words handed out to proc chunks —
// an upper bound on live nursery data.
func (h *Heap) issuedWords() uint64 { return h.nextChunk - h.nurLo }

// minorCapacityShort reports whether a minor collection could overflow
// the old generation: survivors are bounded by the issued nursery words,
// so when those exceed the old generation's remaining room the minor
// must escalate to a full collection.
func (h *Heap) minorCapacityShort() bool {
	return h.issuedWords() > h.fromHi-h.oldTop
}

// minor copies live nursery objects into the old generation (Cheney scan)
// and resets the allocation region.  Collect's capacity pre-check
// guarantees the old generation has room for the worst-case survivor
// set, so the overflow panic in forwardMinor is an invariant assertion,
// not a reachable failure.
func (h *Heap) minor(roots []*Value) {
	base := h.oldTop
	scan := base
	// Roots: client roots plus store-list entries.
	for _, r := range roots {
		*r = h.forwardMinor(*r)
	}
	for _, s := range h.stores {
		slot := s.obj + 1 + uint64(s.slot)
		h.words[slot] = uint64(h.forwardMinor(Value(h.words[slot])))
	}
	h.stores = h.stores[:0]
	// Cheney: scan newly copied objects for further nursery pointers;
	// byte objects carry no pointers and are skipped.
	for scan < h.oldTop {
		hdr := h.words[scan]
		n := hdr >> 2
		if hdr&hdrBytes == 0 {
			for i := uint64(0); i < n; i++ {
				h.words[scan+1+i] = uint64(h.forwardMinor(Value(h.words[scan+1+i])))
			}
		}
		scan += 1 + n
	}
	h.resetNursery()
	// The sequential collectors pack to-space tightly, so a pass copied
	// exactly the words its to-space pointer advanced: one add per
	// collection, none per object.
	copied := int64(h.oldTop - base)
	h.m.copiedWords.Add(0, copied)
	h.liveAcct += copied
	h.m.minorGCs.Inc(0)
}

// resetNursery redivides the allocation region after a collection,
// retiring every proc's chunk first so the words allocated since its last
// refill reach alloc_words before cur is zeroed.  Runs under the stop:
// the clean-point barrier orders each proc's last bump before these reads.
func (h *Heap) resetNursery() {
	h.nextChunk = h.nurLo
	for _, pa := range h.allocs {
		pa.retire()
		pa.cur, pa.mark, pa.limit, pa.taken = 0, 0, 0, 0
	}
}

// forwardMinor copies a nursery object to the old generation, leaving a
// forwarding header; old-generation and immediate values pass through.
func (h *Heap) forwardMinor(v Value) Value {
	if !v.IsPtr() || !h.inNursery(v.addr()) {
		return v
	}
	a := v.addr()
	hdr := h.words[a]
	if hdr&hdrForward != 0 {
		return ptrTo(hdr >> 2)
	}
	n := hdr >> 2
	if h.oldTop+1+n > h.fromHi {
		panic("mlheap: old generation overflow during minor collection (escalation pre-check violated)")
	}
	dst := h.oldTop
	h.words[dst] = hdr
	copy(h.words[dst+1:dst+1+n], h.words[a+1:a+1+n])
	h.oldTop = dst + 1 + n
	h.words[a] = dst<<2 | hdrForward
	return ptrTo(dst)
}

// major copies the live old generation into the other semispace and swaps
// spaces.
func (h *Heap) major(roots []*Value) {
	dstLo := h.toLo
	dstHi := dstLo + uint64(h.cfg.SemiWords)
	top := dstLo
	var forward func(v Value) Value
	forward = func(v Value) Value {
		if !v.IsPtr() || !h.isOldFrom(v.addr()) {
			return v
		}
		a := v.addr()
		hdr := h.words[a]
		if hdr&hdrForward != 0 {
			return ptrTo(hdr >> 2)
		}
		n := hdr >> 2
		if top+1+n > dstHi {
			panic("mlheap: live data exceeds a semispace during major collection")
		}
		dst := top
		h.words[dst] = hdr
		copy(h.words[dst+1:dst+1+n], h.words[a+1:a+1+n])
		top = dst + 1 + n
		h.words[a] = dst<<2 | hdrForward
		return ptrTo(dst)
	}
	scan := dstLo
	for _, r := range roots {
		*r = forward(*r)
	}
	for scan < top {
		hdr := h.words[scan]
		n := hdr >> 2
		if hdr&hdrBytes == 0 {
			for i := uint64(0); i < n; i++ {
				h.words[scan+1+i] = uint64(forward(Value(h.words[scan+1+i])))
			}
		}
		scan += 1 + n
	}
	h.swapSemis(top)
	h.liveAcct = int64(top - dstLo)
	h.m.copiedWords.Add(0, h.liveAcct)
	h.m.majorGCs.Inc(0)
}

// swapSemis flips from- and to-space after a major or full collection.
func (h *Heap) swapSemis(top uint64) {
	h.fromLo, h.toLo = h.toLo, h.fromLo
	h.fromHi = h.fromLo + uint64(h.cfg.SemiWords)
	h.oldTop = top
}

// full is the minor-to-major escalation: when a burst of survivors could
// overflow the old generation mid-minor, the nursery and the live old
// generation are collected together into the other semispace.  The store
// list is simply dropped — the full scan rediscovers every old-to-young
// edge.  A full collection does both generations' work, so it counts as
// one minor and one major, plus an escalation.
func (h *Heap) full(roots []*Value) {
	dstLo := h.toLo
	dstHi := dstLo + uint64(h.cfg.SemiWords)
	top := dstLo
	var forward func(v Value) Value
	forward = func(v Value) Value {
		if !v.IsPtr() {
			return v
		}
		a := v.addr()
		if !h.inNursery(a) && !h.isOldFrom(a) {
			return v
		}
		hdr := h.words[a]
		if hdr&hdrForward != 0 {
			return ptrTo(hdr >> 2)
		}
		n := hdr >> 2
		if top+1+n > dstHi {
			panic("mlheap: live data exceeds a semispace during full collection")
		}
		dst := top
		h.words[dst] = hdr
		copy(h.words[dst+1:dst+1+n], h.words[a+1:a+1+n])
		top = dst + 1 + n
		h.words[a] = dst<<2 | hdrForward
		return ptrTo(dst)
	}
	scan := dstLo
	for _, r := range roots {
		*r = forward(*r)
	}
	for scan < top {
		hdr := h.words[scan]
		n := hdr >> 2
		if hdr&hdrBytes == 0 {
			for i := uint64(0); i < n; i++ {
				h.words[scan+1+i] = uint64(forward(Value(h.words[scan+1+i])))
			}
		}
		scan += 1 + n
	}
	h.stores = h.stores[:0]
	h.swapSemis(top)
	h.resetNursery()
	h.liveAcct = int64(top - dstLo)
	h.m.copiedWords.Add(0, h.liveAcct)
	h.m.minorGCs.Inc(0)
	h.m.majorGCs.Inc(0)
	h.m.escalations.Inc(0)
}

// isOldFrom reports whether a lies in the current old from-space region
// holding live data (below oldTop when called during major).
func (h *Heap) isOldFrom(a uint64) bool {
	return a >= h.fromLo && a < h.fromHi
}
