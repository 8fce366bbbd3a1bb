package gcsync

import (
	"testing"

	"repro/internal/mlheap"
)

// The two loops of serve's /work/mlalloc handler over a real World sized
// as mpserved sizes it, one attached proc: n=511 cells a request, each
// finished list parked in a 16-slot registry of world roots, so a
// collection copies what the serving path's does: the last 16 lists.

const (
	benchCells = 511
	benchSlots = 16
)

func benchWorld() (*World, *Alloc, *[benchSlots]mlheap.Value) {
	w := NewWorld(mlheap.Config{NurseryWords: 1 << 16, SemiWords: 1 << 20, ChunkWords: 1024, RegionWords: 512, Procs: 1})
	reg := new([benchSlots]mlheap.Value)
	for i := range reg {
		w.AddRoot(&reg[i])
	}
	return w, w.Attach(), reg
}

// BenchmarkRecordCons is one cons cell through Record — the clean-point
// flag load, the bump, and this proc's share of the collections its
// allocation causes.
func BenchmarkRecordCons(b *testing.B) {
	_, a, reg := benchWorld()
	defer a.Detach()
	var list mlheap.Value = mlheap.Nil
	a.AddRoot(&list)
	defer a.RemoveRoot(&list)
	b.ResetTimer()
	for i, req := 0, 0; i < b.N; i++ {
		list = a.Record(mlheap.Int(int64(i)), list)
		if (i+1)%benchCells == 0 {
			reg[req%benchSlots] = list
			list = mlheap.Nil
			req++
		}
	}
}

// BenchmarkFold511 is one cell of the handler's fold — two Gets — walking
// the registry's lists in turn.  (The handler's clean point every 512
// cells never fires on a 511-cell list, so it is not here either.)
func BenchmarkFold511(b *testing.B) {
	w, a, reg := benchWorld()
	defer a.Detach()
	for s := range reg {
		for i := 0; i < benchCells; i++ {
			reg[s] = a.Record(mlheap.Int(int64(i)), reg[s])
		}
	}
	h := w.Heap()
	var fold int64
	b.ResetTimer()
	for i, s := 0, 0; i < b.N; s++ {
		for list := reg[s%benchSlots]; list != mlheap.Nil && i < b.N; list = h.Get(list, 1) {
			fold += h.Get(list, 0).Int()
			i++
		}
	}
	if fold < 0 {
		b.Fatal("fold overflowed")
	}
}
