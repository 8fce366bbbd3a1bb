package mlio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/proc"
	"repro/internal/syncx"
	"repro/internal/threads"
)

// hammer writes n records per writer from several threads under the given
// policy and returns the stream contents.
func hammer(t *testing.T, pol Policy, writers, n int) []byte {
	t.Helper()
	rt := NewRuntime()
	s := threads.New(proc.New(4), threads.Options{})
	s.Run(func() {
		st := rt.Open("out")
		wg := syncx.NewWaitGroup(s, writers)
		for w := 0; w < writers; w++ {
			w := w
			s.Fork(func() {
				for i := 0; i < n; i++ {
					pol.Write(st, []byte(fmt.Sprintf("writer%02d-record%04d", w, i)))
					if i%8 == 0 {
						s.Yield()
					}
				}
				wg.Done()
			})
		}
		wg.Wait()
	})
	return rt.Contents("out")
}

// checkAtomic verifies that every line of the output is a complete,
// well-formed record.
func checkAtomic(data []byte, writers, n int) error {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != writers*n {
		return fmt.Errorf("%d records, want %d", len(lines), writers*n)
	}
	counts := map[string]int{}
	for _, l := range lines {
		if len(l) != len("writer00-record0000") {
			return fmt.Errorf("torn record %q", l)
		}
		counts[string(l)]++
	}
	for rec, c := range counts {
		if c != 1 {
			return fmt.Errorf("record %q appears %d times", rec, c)
		}
	}
	return nil
}

func TestGlobalLockKeepsRecordsAtomic(t *testing.T) {
	data := hammer(t, NewGlobalLock(), 6, 50)
	if err := checkAtomic(data, 6, 50); err != nil {
		t.Fatal(err)
	}
}

func TestPerStreamKeepsRecordsAtomic(t *testing.T) {
	data := hammer(t, NewPerStream(), 6, 50)
	if err := checkAtomic(data, 6, 50); err != nil {
		t.Fatal(err)
	}
}

func TestPerStreamAllowsParallelStreams(t *testing.T) {
	// Different streams must not serialize against each other under the
	// per-stream policy; functional check: both streams complete and are
	// individually intact.
	rt := NewRuntime()
	pol := NewPerStream()
	s := threads.New(proc.New(4), threads.Options{})
	s.Run(func() {
		wg := syncx.NewWaitGroup(s, 2)
		for _, name := range []string{"a", "b"} {
			name := name
			s.Fork(func() {
				st := rt.Open(name)
				for i := 0; i < 100; i++ {
					pol.Write(st, []byte(fmt.Sprintf("writer00-record%04d", i)))
				}
				wg.Done()
			})
		}
		wg.Wait()
	})
	for _, name := range []string{"a", "b"} {
		if err := checkAtomic(rt.Contents(name), 1, 100); err != nil {
			t.Fatalf("stream %s: %v", name, err)
		}
	}
}

// TestPerStreamConcurrentWritersNoTornLines is the serving-path variant
// of the atomicity check: two MP threads write *variable-length* records
// to the same stream (the access-log shape — every line a different
// width), released simultaneously through a barrier so their write
// windows genuinely overlap, yielding between every record to force
// interleaving at the scheduler level.  Under the per-stream lock every
// line must still come out whole: correct prefix, correct
// length-for-sequence-number, correct terminator.
func TestPerStreamConcurrentWritersNoTornLines(t *testing.T) {
	const perWriter = 200
	rt := NewRuntime()
	pol := NewPerStream()
	s := threads.New(proc.New(4), threads.Options{})
	s.Run(func() {
		st := rt.Open("access")
		start := syncx.NewBarrier(s, 2)
		wg := syncx.NewWaitGroup(s, 2)
		for w := 0; w < 2; w++ {
			w := w
			s.Fork(func() {
				start.Await()
				for i := 0; i < perWriter; i++ {
					// Record length varies with the sequence number.
					rec := fmt.Sprintf("w%d|%s|%04d", w, bytes.Repeat([]byte{'x'}, i%37), i)
					pol.Write(st, []byte(rec))
					s.Yield()
				}
				wg.Done()
			})
		}
		wg.Wait()
	})

	lines := bytes.Split(bytes.TrimSuffix(rt.Contents("access"), []byte("\n")), []byte("\n"))
	if len(lines) != 2*perWriter {
		t.Fatalf("%d lines, want %d", len(lines), 2*perWriter)
	}
	seen := map[string]int{}
	for _, l := range lines {
		parts := bytes.Split(l, []byte("|"))
		if len(parts) != 3 || len(parts[0]) != 2 || parts[0][0] != 'w' {
			t.Fatalf("torn line %q", l)
		}
		var seq int
		if _, err := fmt.Sscanf(string(parts[2]), "%04d", &seq); err != nil {
			t.Fatalf("torn line %q: bad sequence field: %v", l, err)
		}
		if want := seq % 37; len(parts[1]) != want || bytes.Count(parts[1], []byte{'x'}) != want {
			t.Fatalf("torn line %q: body %d bytes, want %d", l, len(parts[1]), want)
		}
		seen[string(l)]++
	}
	for rec, c := range seen {
		if c != 1 {
			t.Errorf("record %q appears %d times", rec, c)
		}
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	rt := NewRuntime()
	pl := proc.New(1)
	pl.Run(func() {
		a := rt.Open("x")
		b := rt.Open("x")
		if a != b {
			t.Error("Open returned two streams for one name")
		}
	}, nil)
}

func TestUnlockedSingleWriterIsFine(t *testing.T) {
	// The raw policy is correct for a single writer — the point of §3.4
	// is that MP leaves the policy to the client.
	data := hammer(t, Unlocked{}, 1, 100)
	if err := checkAtomic(data, 1, 100); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedStreamRetainsRecentWholeRecords: a bounded runtime's stream
// never holds much more than its limit, always begins at a record
// boundary, and ends with the most recent record — a server's log does
// not grow with the number of requests answered.
func TestBoundedStreamRetainsRecentWholeRecords(t *testing.T) {
	const limit = 1 << 10
	r := NewBounded(limit)
	st := r.Open("log")
	var pol Unlocked
	last := ""
	for i := 0; i < 5000; i++ {
		last = fmt.Sprintf("record-%05d with some padding", i)
		pol.Write(st, []byte(last))
		if n := st.buf.Len(); n > limit+len(last)+1 {
			t.Fatalf("after %d records the stream holds %d bytes, limit %d", i+1, n, limit)
		}
	}
	got := string(r.Contents("log"))
	if !strings.HasPrefix(got, "record-") {
		t.Errorf("retained log starts mid-record: %q", got[:20])
	}
	if !strings.HasSuffix(got, last+"\n") {
		t.Errorf("retained log does not end with the newest record")
	}
	if len(got) < limit/2-len(last) {
		t.Errorf("retained only %d bytes of a %d-byte allowance", len(got), limit)
	}
	// The unbounded runtime keeps everything.
	u := NewRuntime()
	for i := 0; i < 100; i++ {
		pol.Write(u.Open("log"), []byte("x"))
	}
	if n := len(u.Contents("log")); n != 200 {
		t.Errorf("unbounded stream holds %d bytes, want 200", n)
	}
}
