package gcsync

import (
	"runtime"
	"testing"

	"repro/internal/gls"
	"repro/internal/mlheap"
	"repro/internal/proc"
	"repro/internal/threads"
)

// TestBindDoesNotOutliveItsThread: Bind is keyed by goroutine identity,
// and a thread's goroutine is a carrier that goes back to cont's free
// list when the thread ends — the next thread runs on it.  A Bind that
// leaked would hand that thread its predecessor's Alloc at the next
// SectionPoint, so after a request that binds, allocates through a
// collection and unbinds, the world's bound table must be empty, also as
// seen from the thread that inherits the goroutine.
func TestBindDoesNotOutliveItsThread(t *testing.T) {
	// One processor, so the request's carrier has listed itself as idle
	// by the time the thread it resumed forks the successor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := smallWorld(1)
	boundTo := func(id uint64) (a *Alloc, n int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.bound[id], len(w.bound)
	}
	s := threads.New(proc.New(1), threads.Options{})
	var request, successor uint64
	s.Run(func() {
		s.Fork(func() { // the request
			request = gls.ID()
			a := w.Attach()
			defer a.Detach()
			a.Bind()
			defer a.Unbind()
			if got, _ := boundTo(request); got != a {
				t.Error("Bind did not register the calling goroutine")
			}
			var list mlheap.Value = mlheap.Nil
			a.AddRoot(&list)
			defer a.RemoveRoot(&list)
			for gcs := w.GCs(); w.GCs() == gcs; {
				list = a.Record(mlheap.Int(1), list)
			}
		})
		if _, n := boundTo(0); n != 0 {
			t.Errorf("%d goroutines still bound after the request ended", n)
		}
		s.Fork(func() { // whoever runs next on that carrier
			successor = gls.ID()
			if a, _ := boundTo(successor); a != nil {
				t.Error("the next thread on the carrier inherited the request's Bind")
			}
			w.SectionPoint() // no section pending: must not touch a stale Alloc either way
		})
	})
	if successor != request {
		t.Logf("successor ran on g %#x, request on %#x: carrier not reused, inheritance not exercised", successor, request)
	}
	if _, n := boundTo(0); n != 0 {
		t.Errorf("%d goroutines bound after the system quiesced", n)
	}
}
