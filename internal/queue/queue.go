// Package queue implements the paper's QUEUE signature (Fig. 1):
//
//	signature QUEUE = sig
//	    type 'a queue
//	    val create : unit -> '1a queue
//	    val enq : 'a queue -> 'a -> unit
//	    val deq : 'a queue -> 'a          (* raises Empty *)
//	    exception Empty
//	end
//
// The signature deliberately does not fix a queuing discipline: "FIFO and
// randomized queue implementations will both match the signature.  Thus,
// thread scheduling policy can be changed simply by varying the functor's
// argument."  This package supplies FIFO, LIFO, randomized, priority, and
// bounded-ring disciplines behind one generic interface, and the thread
// package is a functor over a Factory exactly as in the paper.
//
// Queues are deliberately unsynchronized: in the paper, MP clients guard
// shared queues with mutex locks themselves (Fig. 3's ready_lock), keeping
// the locking policy out of the data structure.
package queue

import (
	"errors"
	"math/rand"
)

// ErrEmpty is the paper's exception Empty, raised on dequeue when empty.
var ErrEmpty = errors.New("queue: empty")

// Queue is the QUEUE signature.
type Queue[T any] interface {
	// Enq appends x according to the queue's discipline.
	Enq(x T)
	// Deq removes and returns the next element, or ErrEmpty.
	Deq() (T, error)
	// Len reports the number of queued elements.
	Len() int
}

// Factory creates fresh empty queues; the thread functor takes one as its
// QUEUE argument.
type Factory[T any] func() Queue[T]

// Fifo is a first-in-first-out queue backed by a growable ring buffer.
type Fifo[T any] struct {
	buf        []T
	head, size int
}

// NewFifo returns an empty FIFO queue.
func NewFifo[T any]() Queue[T] { return &Fifo[T]{} }

func (q *Fifo[T]) Enq(x T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = x
	q.size++
}

func (q *Fifo[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]T, n)
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

func (q *Fifo[T]) Deq() (T, error) {
	var zero T
	if q.size == 0 {
		return zero, ErrEmpty
	}
	x := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return x, nil
}

func (q *Fifo[T]) Len() int { return q.size }

// Lifo is a last-in-first-out queue (a stack); as a run-queue discipline
// it gives depth-first, locality-friendly scheduling.
type Lifo[T any] struct {
	buf []T
}

// NewLifo returns an empty LIFO queue.
func NewLifo[T any]() Queue[T] { return &Lifo[T]{} }

func (q *Lifo[T]) Enq(x T) { q.buf = append(q.buf, x) }

func (q *Lifo[T]) Deq() (T, error) {
	var zero T
	n := len(q.buf)
	if n == 0 {
		return zero, ErrEmpty
	}
	x := q.buf[n-1]
	q.buf[n-1] = zero
	q.buf = q.buf[:n-1]
	return x, nil
}

func (q *Lifo[T]) Len() int { return len(q.buf) }

// Random dequeues a uniformly random element, the paper's example of an
// alternative scheduling discipline matching the same signature.
type Random[T any] struct {
	buf []T
	rng *rand.Rand
}

// NewRandom returns an empty randomized queue seeded deterministically.
func NewRandom[T any]() Queue[T] { return NewRandomSeeded[T](1) }

// NewRandomSeeded returns an empty randomized queue with the given seed.
func NewRandomSeeded[T any](seed int64) Queue[T] {
	return &Random[T]{rng: rand.New(rand.NewSource(seed))}
}

func (q *Random[T]) Enq(x T) { q.buf = append(q.buf, x) }

func (q *Random[T]) Deq() (T, error) {
	var zero T
	n := len(q.buf)
	if n == 0 {
		return zero, ErrEmpty
	}
	i := q.rng.Intn(n)
	x := q.buf[i]
	q.buf[i] = q.buf[n-1]
	q.buf[n-1] = zero
	q.buf = q.buf[:n-1]
	return x, nil
}

func (q *Random[T]) Len() int { return len(q.buf) }

// Priority dequeues the least element first according to a comparison
// function — the "minor signature change" the paper footnotes for priority
// scheduling, realized here by fixing the priority at construction time.
// It is a binary heap sifted in place on typed items, so neither Enq nor
// Deq allocates once the slice has grown.
type Priority[T any] struct {
	items []prioItem[T]
	less  func(a, b T) bool
	seq   uint64
}

type prioItem[T any] struct {
	x   T
	seq uint64 // FIFO tie-break for equal priorities
}

// NewPriority returns an empty priority queue ordered by less.
func NewPriority[T any](less func(a, b T) bool) Queue[T] {
	return &Priority[T]{less: less}
}

func (q *Priority[T]) before(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if q.less(a.x, b.x) {
		return true
	}
	if q.less(b.x, a.x) {
		return false
	}
	return a.seq < b.seq
}

func (q *Priority[T]) Enq(x T) {
	q.seq++
	q.items = append(q.items, prioItem[T]{x, q.seq})
	for i := len(q.items) - 1; i > 0; {
		up := (i - 1) / 2
		if !q.before(i, up) {
			break
		}
		q.items[i], q.items[up] = q.items[up], q.items[i]
		i = up
	}
}

func (q *Priority[T]) Deq() (T, error) {
	n := len(q.items) - 1
	if n < 0 {
		var zero T
		return zero, ErrEmpty
	}
	x := q.items[0].x
	q.items[0] = q.items[n]
	q.items[n] = prioItem[T]{} // release for GC
	q.items = q.items[:n]
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && q.before(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && q.before(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
	return x, nil
}

func (q *Priority[T]) Len() int { return len(q.items) }

// Ring is a fixed-capacity FIFO; Enq on a full ring panics, making it
// suitable for statically bounded structures such as per-proc mailboxes.
type Ring[T any] struct {
	buf        []T
	head, size int
}

// NewRing returns an empty bounded FIFO of the given capacity.
func NewRing[T any](capacity int) Queue[T] {
	if capacity <= 0 {
		panic("queue: ring capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

func (q *Ring[T]) Enq(x T) {
	if q.size == len(q.buf) {
		panic("queue: ring overflow")
	}
	q.buf[(q.head+q.size)%len(q.buf)] = x
	q.size++
}

func (q *Ring[T]) Deq() (T, error) {
	var zero T
	if q.size == 0 {
		return zero, ErrEmpty
	}
	x := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return x, nil
}

func (q *Ring[T]) Len() int { return q.size }
