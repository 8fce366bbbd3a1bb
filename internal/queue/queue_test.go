package queue

import (
	"sort"
	"testing"
	"testing/quick"
)

func disciplines() []struct {
	name string
	mk   Factory[int]
} {
	return []struct {
		name string
		mk   Factory[int]
	}{
		{"fifo", NewFifo[int]},
		{"lifo", NewLifo[int]},
		{"random", NewRandom[int]},
		{"priority", func() Queue[int] { return NewPriority(func(a, b int) bool { return a < b }) }},
		{"ring", func() Queue[int] { return NewRing[int](4096) }},
	}
}

func TestEmptyDeq(t *testing.T) {
	for _, d := range disciplines() {
		t.Run(d.name, func(t *testing.T) {
			q := d.mk()
			if _, err := q.Deq(); err != ErrEmpty {
				t.Fatalf("Deq on empty = %v, want ErrEmpty", err)
			}
			q.Enq(1)
			if _, err := q.Deq(); err != nil {
				t.Fatalf("Deq = %v", err)
			}
			if _, err := q.Deq(); err != ErrEmpty {
				t.Fatalf("Deq after drain = %v, want ErrEmpty", err)
			}
		})
	}
}

func TestFifoOrder(t *testing.T) {
	q := NewFifo[int]()
	for i := 0; i < 100; i++ {
		q.Enq(i)
	}
	for i := 0; i < 100; i++ {
		x, err := q.Deq()
		if err != nil || x != i {
			t.Fatalf("Deq #%d = %d, %v", i, x, err)
		}
	}
}

func TestFifoInterleaved(t *testing.T) {
	q := NewFifo[int]()
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Enq(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			x, err := q.Deq()
			if err != nil || x != want {
				t.Fatalf("round %d: Deq = %d, %v; want %d", round, x, err, want)
			}
			want++
		}
	}
}

func TestLifoOrder(t *testing.T) {
	q := NewLifo[int]()
	for i := 0; i < 10; i++ {
		q.Enq(i)
	}
	for i := 9; i >= 0; i-- {
		x, _ := q.Deq()
		if x != i {
			t.Fatalf("Deq = %d, want %d", x, i)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	q := NewPriority(func(a, b int) bool { return a < b })
	in := []int{5, 3, 9, 1, 7, 3}
	for _, x := range in {
		q.Enq(x)
	}
	want := append([]int(nil), in...)
	sort.Ints(want)
	for _, w := range want {
		x, err := q.Deq()
		if err != nil || x != w {
			t.Fatalf("Deq = %d, %v; want %d", x, err, w)
		}
	}
}

func TestPriorityFIFOTieBreak(t *testing.T) {
	type job struct{ prio, seq int }
	q := NewPriority(func(a, b job) bool { return a.prio < b.prio })
	for i := 0; i < 10; i++ {
		q.Enq(job{prio: 1, seq: i})
	}
	for i := 0; i < 10; i++ {
		j, _ := q.Deq()
		if j.seq != i {
			t.Fatalf("equal-priority order broken: got seq %d at pos %d", j.seq, i)
		}
	}
}

// TestQuickPriorityInterleaved: under any script of enqueues and
// dequeues, each Deq returns the least priority queued, the earliest
// enqueued among equals.
func TestQuickPriorityInterleaved(t *testing.T) {
	type job struct{ prio, seq int }
	prop := func(ops []int8) bool {
		q := NewPriority(func(a, b job) bool { return a.prio < b.prio })
		var ref []job // kept sorted by (prio, seq)
		for seq, op := range ops {
			if op >= 0 {
				j := job{int(op) % 4, seq}
				q.Enq(j)
				i := sort.Search(len(ref), func(i int) bool { return ref[i].prio > j.prio })
				ref = append(ref[:i], append([]job{j}, ref[i:]...)...)
				continue
			}
			got, err := q.Deq()
			if len(ref) == 0 {
				if err != ErrEmpty {
					return false
				}
				continue
			}
			if err != nil || got != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		return q.Len() == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNoAllocsPriority: once its slice has grown, the priority queue
// enqueues and dequeues without allocating, as Fifo does.
func TestNoAllocsPriority(t *testing.T) {
	q := NewPriority(func(a, b int) bool { return a < b })
	for i := 0; i < 64; i++ {
		q.Enq(i % 7)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		q.Enq(i % 7)
		q.Deq()
	}); n != 0 {
		t.Fatalf("Priority Enq+Deq allocates %.1f times, want 0", n)
	}
}

func TestRingBounds(t *testing.T) {
	q := NewRing[int](3)
	q.Enq(1)
	q.Enq(2)
	q.Enq(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflow did not panic")
			}
		}()
		q.Enq(4)
	}()
	for want := 1; want <= 3; want++ {
		x, _ := q.Deq()
		if x != want {
			t.Fatalf("ring order: got %d want %d", x, want)
		}
	}
}

func TestRingCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

func TestRandomIsPermutation(t *testing.T) {
	q := NewRandomSeeded[int](42)
	for i := 0; i < 100; i++ {
		q.Enq(i)
	}
	seen := map[int]bool{}
	inOrder := true
	for i := 0; i < 100; i++ {
		x, err := q.Deq()
		if err != nil {
			t.Fatal(err)
		}
		if seen[x] {
			t.Fatalf("duplicate element %d", x)
		}
		seen[x] = true
		if x != i {
			inOrder = false
		}
	}
	if len(seen) != 100 {
		t.Fatalf("lost elements: %d of 100", len(seen))
	}
	if inOrder {
		t.Error("randomized queue dequeued in FIFO order (suspicious for n=100)")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	drain := func(seed int64) []int {
		q := NewRandomSeeded[int](seed)
		for i := 0; i < 50; i++ {
			q.Enq(i)
		}
		var out []int
		for q.Len() > 0 {
			x, _ := q.Deq()
			out = append(out, x)
		}
		return out
	}
	a, b := drain(7), drain(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different orders")
		}
	}
}

// TestQuickConservation: for every discipline, any script of enqueues and
// dequeues conserves elements — the multiset out is a sub-multiset of in,
// Len is consistent, and draining returns exactly what remains.
func TestQuickConservation(t *testing.T) {
	for _, d := range disciplines() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			prop := func(ops []int16) bool {
				q := d.mk()
				in := map[int]int{}
				out := map[int]int{}
				n := 0
				for _, op := range ops {
					if op >= 0 && n < 4000 {
						q.Enq(int(op))
						in[int(op)]++
						n++
					} else if n > 0 {
						x, err := q.Deq()
						if err != nil {
							return false
						}
						out[x]++
						n--
					}
					if q.Len() != n {
						return false
					}
				}
				for q.Len() > 0 {
					x, err := q.Deq()
					if err != nil {
						return false
					}
					out[x]++
				}
				for k, v := range out {
					if in[k] != v {
						return false
					}
				}
				for k, v := range in {
					if out[k] != v {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

func BenchmarkFifoEnqDeq(b *testing.B) {
	q := NewFifo[int]()
	for i := 0; i < b.N; i++ {
		q.Enq(i)
		q.Deq()
	}
}
