package mlheap

import "testing"

var benchSink Value

// BenchmarkAllocRecord2 is the cost of one cons cell at the allocator:
// in_chunk never leaves its chunk between collections, refills crosses a
// serving-size chunk boundary every 341 cells.  The nursery is the
// serving path's; the stop is a bare redivide (no roots).
func BenchmarkAllocRecord2(b *testing.B) {
	for _, c := range []struct {
		name  string
		chunk int
	}{{"in_chunk", 1 << 16}, {"refills", 1024}} {
		b.Run(c.name, func(b *testing.B) {
			h := New(Config{NurseryWords: 1 << 16, SemiWords: 1 << 20, ChunkWords: c.chunk, RegionWords: 512, Procs: 1})
			pa := h.NewProcAlloc()
			list := Nil
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := pa.AllocRecord(Int(int64(i)), list)
				if err != nil {
					h.Collect(nil)
					v, _ = pa.AllocRecord(Int(int64(i)), Nil)
				}
				list = v
			}
			benchSink = list
		})
	}
}

// BenchmarkAllocBytes is one 24-byte string (5 words) at the allocator.
func BenchmarkAllocBytes(b *testing.B) {
	h := New(Config{NurseryWords: 1 << 16, SemiWords: 1 << 20, ChunkWords: 1024, RegionWords: 512, Procs: 1})
	pa := h.NewProcAlloc()
	data := []byte("twenty-four bytes of ML.")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := pa.AllocBytes(data)
		if err != nil {
			h.Collect(nil)
			v, _ = pa.AllocBytes(data)
		}
		benchSink = v
	}
}
