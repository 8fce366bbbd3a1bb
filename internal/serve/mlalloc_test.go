package serve

// End-to-end tests for the /work/mlalloc allocating kernel: concurrent
// requests share one gcsync world, exhaust its nursery, and collect in
// parallel at clean-point barriers — on the live serving path.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gcsync"
	"repro/internal/mlheap"
)

func mlWorldForTest(procs int) *gcsync.World {
	return gcsync.NewWorld(mlheap.Config{
		NurseryWords: 1 << 14,
		SemiWords:    1 << 18,
		ChunkWords:   512,
		RegionWords:  256,
		Procs:        procs,
	})
}

func TestMLAllocEndToEnd(t *testing.T) {
	world := mlWorldForTest(8)
	ts := startServer(t, 4, Options{MLWorld: world}, nil)

	const clients, reqs = 6, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				path := fmt.Sprintf("/work/mlalloc?n=3000&seed=%d", c*100+r)
				st, _, body, err := doReq(ts.addr(), "GET", path, nil, 30*time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if st != 200 {
					errs <- fmt.Errorf("client %d: status %d: %s", c, st, body)
					return
				}
				if !strings.Contains(string(body), "cells=3000") {
					errs <- fmt.Errorf("client %d: unexpected body %q", c, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if world.GCs() == 0 {
		t.Fatal("serving load performed no collections")
	}
	// Every handler detached before its reply was written, so no chunk is
	// in flight and the derived counter is exact: 3 words a cell plus the
	// boot registry record.
	if got, want := world.Heap().Stats().AllocatedWords, int64(clients*reqs*3000*3+1+mlSharedSlots); !t.Failed() && got != want {
		t.Errorf("alloc_words = %d after %d drained requests, want exactly %d", got, clients*reqs, want)
	}
	st, _, body, err := doReq(ts.addr(), "GET", "/metrics", nil, 10*time.Second)
	if err != nil || st != 200 {
		t.Fatalf("/metrics: %d %v", st, err)
	}
	for _, name := range []string{"mlheap.gc_pause_ticks", "mlheap.minor_gcs", "gcsync.section_entries"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	snap := world.Heap().Metrics().Snapshot()
	if snap.Histograms["mlheap.gc_pause_ticks"].Count == 0 {
		t.Error("no pauses recorded in mlheap.gc_pause_ticks")
	}
}

// TestMLAllocSequentialAblation: a world switched to the paper's
// one-collector stop (World.SetSequential) must serve the same kernel
// correctly.
func TestMLAllocSequentialAblation(t *testing.T) {
	world := mlWorldForTest(8)
	world.SetSequential(true)
	ts := startServer(t, 4, Options{MLWorld: world}, nil)

	for r := 0; r < 6; r++ {
		st, _, body, err := doReq(ts.addr(), "GET", fmt.Sprintf("/work/mlalloc?n=4000&seed=%d", r), nil, 30*time.Second)
		if err != nil || st != 200 {
			t.Fatalf("request %d: status %d err %v body %s", r, st, err, body)
		}
	}
	if world.GCs() == 0 {
		t.Fatal("sequential world performed no collections under load")
	}
}

// TestMLAllocFoldSurvivesCollections is the regression test for the
// fold cursor: the fold takes a clean point every mlFoldStride cells,
// and a copying collection there moves the cell the cursor stands on,
// so the cursor must be a registered root or the rest of the walk reads
// from-space.  The heap is tight enough that every request's allocation
// phase raises several collections, so with concurrent requests some
// always land inside another request's fold; every reply must still
// count all n cells and fold to n·seed + n(n−1)/2.
func TestMLAllocFoldSurvivesCollections(t *testing.T) {
	const n = 8 * mlFoldStride
	world := gcsync.NewWorld(mlheap.Config{
		NurseryWords: 1 << 13,
		SemiWords:    1 << 18,
		ChunkWords:   256,
		RegionWords:  256,
		Procs:        8,
	})
	ts := startServer(t, 4, Options{MLWorld: world}, nil)

	const clients, reqs = 6, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				seed := int64(c*1000 + r)
				path := fmt.Sprintf("/work/mlalloc?n=%d&seed=%d", n, seed)
				st, _, body, err := doReq(ts.addr(), "GET", path, nil, 30*time.Second)
				if err != nil || st != 200 {
					errs <- fmt.Errorf("seed %d: status %d err %v body %q", seed, st, err, body)
					return
				}
				var gotN, cells, gcs int
				var sum, fold int64
				if _, err := fmt.Sscanf(string(body), "mlalloc n=%d cells=%d sum=%d fold=%d gcs=%d",
					&gotN, &cells, &sum, &fold, &gcs); err != nil {
					errs <- fmt.Errorf("seed %d: unparseable body %q: %v", seed, body, err)
					return
				}
				if want := n*seed + n*(n-1)/2; cells != n || fold != want {
					errs <- fmt.Errorf("seed %d: cells=%d fold=%d, want cells=%d fold=%d", seed, cells, fold, n, want)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if gcs := world.GCs(); gcs < clients*reqs {
		t.Fatalf("only %d collections over %d requests: the heap is not tight enough to collect mid-fold", gcs, clients*reqs)
	}
}

// TestMLAllocReplyMatchesSprintf pins the strconv-built reply line to the
// fmt form load generators Sscanf, and the sized body to one allocation.
func TestMLAllocReplyMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		n, cells  int
		sum, fold int64
		gcs       int
	}{
		{1, 1, 1, 1, 0},
		{511, 511, 511*3 + 130305, 130305 + 511*3, 23},
		{mlMaxCells, mlMaxCells, math.MaxInt64, math.MaxInt64, math.MaxInt},
		{511, 511, -7*511 + 130305 - 1, -7*511 + 130305, 4_000_000_000},
		{mlMaxCells, mlMaxCells, math.MinInt64, math.MinInt64, math.MaxInt},
	} {
		want := fmt.Sprintf("mlalloc n=%d cells=%d sum=%d fold=%d gcs=%d\n", c.n, c.cells, c.sum, c.fold, c.gcs)
		got := appendMLAllocReply(make([]byte, 0, mlReplyCap), c.n, c.cells, c.sum, c.fold, c.gcs)
		if string(got) != want {
			t.Errorf("reply %q, want %q", got, want)
		}
		if cap(got) != mlReplyCap {
			t.Errorf("reply of %d bytes outgrew mlReplyCap=%d", len(got), mlReplyCap)
		}
	}
}
