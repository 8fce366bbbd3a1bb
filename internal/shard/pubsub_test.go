//go:build linux

package shard

// Pub/sub-through-the-fabric tests: topic-keyed routing pins a topic to
// one shard so publish and subscribe meet, streaming subscriptions are
// carried by both fronts (a connection thread pumping StreamResponse,
// and the mux pollers cycling StateStreaming), the drain cascade closes
// every stream with the chunked terminator after all acked publishes
// are delivered, and /fabricz aggregates the broker counters.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

func pubsubOpts(extra func(*Options)) Options {
	opts := Options{
		Shards:         2,
		PubSub:         true,
		RebalanceTicks: NoRebalance,
	}
	if extra != nil {
		extra(&opts)
	}
	return opts
}

// streamSub is a live /subscribe connection reading chunked frames.
type streamSub struct {
	nc net.Conn
	br *bufio.Reader
	id string
}

func openSub(t *testing.T, addr, topic string) *streamSub {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	req := fmt.Sprintf("GET /subscribe?topic=%s HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n", topic)
	if _, err := nc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "200") {
		t.Fatalf("subscribe status line %q", line)
	}
	chunked := false
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(h) == "" {
			break
		}
		if strings.Contains(strings.ToLower(h), "transfer-encoding") &&
			strings.Contains(strings.ToLower(h), "chunked") {
			chunked = true
		}
	}
	if !chunked {
		t.Fatal("subscribe response is not chunked")
	}
	ss := &streamSub{nc: nc, br: br}
	frame, term := ss.next(t, 20*time.Second)
	if term || !strings.HasPrefix(frame, "id:") {
		t.Fatalf("first frame = %q (term=%v), want id:<n>", frame, term)
	}
	ss.id = frame[3:]
	return ss
}

// next returns one data frame, skipping heartbeat padding; term reports
// the chunked terminator.
func (ss *streamSub) next(t *testing.T, timeout time.Duration) (string, bool) {
	t.Helper()
	for {
		ss.nc.SetReadDeadline(time.Now().Add(timeout))
		line, err := ss.br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 32)
		if err != nil {
			t.Fatalf("bad chunk size %q", line)
		}
		if size == 0 {
			ss.br.ReadString('\n')
			return "", true
		}
		buf := make([]byte, size+2)
		if _, err := io.ReadFull(ss.br, buf); err != nil {
			t.Fatal(err)
		}
		if f := string(buf[:size]); f != "\n" {
			return f, false
		}
	}
}

// post issues one one-shot POST and returns the status.
func post(t *testing.T, addr, path string, body []byte) int {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	if _, err := nc.Write(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 {
		t.Fatalf("bad status line %q", line)
	}
	st, err := strconv.Atoi(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPubSubTopicRoutedToOneShard: with two shards and no routing
// header on any request, a topic's subscribe and publish must still
// meet on one shard — the topic key routes through the consistent-hash
// ring ahead of the sticky header.  Several topics spread across both
// shards; every one must deliver.
func TestPubSubTopicRoutedToOneShard(t *testing.T) {
	tf := startFabric(t, pubsubOpts(nil), nil)
	const topics = 6
	subs := make([]*streamSub, topics)
	for i := range subs {
		subs[i] = openSub(t, tf.addr(), fmt.Sprintf("t%d", i))
	}
	for i := 0; i < topics; i++ {
		msg := fmt.Sprintf("payload-%d", i)
		if st := post(t, tf.addr(), fmt.Sprintf("/publish?topic=t%d", i), []byte(msg)); st != 200 {
			t.Fatalf("publish t%d: status %d", i, st)
		}
		if frame, term := subs[i].next(t, 20*time.Second); term || frame != msg {
			t.Fatalf("topic t%d: frame = %q (term=%v), want %q", i, frame, term, msg)
		}
	}
	if got := tf.fab.FrontMetrics().Snapshot().Get("shard.routed_topic"); got < int64(2*topics) {
		t.Errorf("shard.routed_topic = %d, want >= %d (every pub/sub op topic-routed)", got, 2*topics)
	}
}

// TestPubSubStreamingOnConnThreadFront: subscribe, receive a burst,
// unsubscribe, and read the clean terminator — the conn-thread front's
// StreamResponse pump end to end.
func TestPubSubStreamingOnConnThreadFront(t *testing.T) {
	tf := startFabric(t, pubsubOpts(nil), nil)
	ss := openSub(t, tf.addr(), "burst")
	for i := 0; i < 5; i++ {
		if st := post(t, tf.addr(), "/publish?topic=burst", []byte(fmt.Sprintf("b%d", i))); st != 200 {
			t.Fatalf("publish %d: status %d", i, st)
		}
	}
	for i := 0; i < 5; i++ {
		if frame, term := ss.next(t, 20*time.Second); term || frame != fmt.Sprintf("b%d", i) {
			t.Fatalf("frame %d = %q (term=%v)", i, frame, term)
		}
	}
	if st := post(t, tf.addr(), "/unsubscribe?topic=burst&id="+ss.id, nil); st != 200 {
		t.Fatalf("unsubscribe: status %d", st)
	}
	if _, term := ss.next(t, 20*time.Second); !term {
		t.Fatal("no chunked terminator after unsubscribe")
	}
	if got := tf.fab.FrontMetrics().Snapshot().Get("shard.stream_frames"); got < 5 {
		t.Errorf("shard.stream_frames = %d, want >= 5", got)
	}
}

// TestPubSubStreamingOnMuxFront: the same contract under the poller
// pool — subscriptions held as parked StateStreaming machines, frames
// pumped by pollers, terminator on unsubscribe.
func TestPubSubStreamingOnMuxFront(t *testing.T) {
	tf := startFabric(t, pubsubOpts(func(o *Options) {
		o.Mux = true
		o.Pollers = 2
	}), nil)
	const nsubs = 4
	subs := make([]*streamSub, nsubs)
	for i := range subs {
		subs[i] = openSub(t, tf.addr(), "mx")
	}
	for i := 0; i < 3; i++ {
		if st := post(t, tf.addr(), "/publish?topic=mx", []byte(fmt.Sprintf("m%d", i))); st != 200 {
			t.Fatalf("publish %d: status %d", i, st)
		}
	}
	for si, ss := range subs {
		for i := 0; i < 3; i++ {
			if frame, term := ss.next(t, 30*time.Second); term || frame != fmt.Sprintf("m%d", i) {
				t.Fatalf("sub %d frame %d = %q (term=%v)", si, i, frame, term)
			}
		}
	}
	if st := post(t, tf.addr(), "/unsubscribe?topic=mx&id="+subs[0].id, nil); st != 200 {
		t.Fatalf("unsubscribe: status %d", st)
	}
	if _, term := subs[0].next(t, 30*time.Second); !term {
		t.Fatal("no chunked terminator after unsubscribe on the mux front")
	}
	// The poller uncounts the stream when it closes the connection, which
	// is after the terminator's bytes reached the client: wait for it.
	snap := tf.fab.FrontMetrics().Snapshot()
	for deadline := time.Now().Add(10 * time.Second); snap.Get("shard.stream_conns") != nsubs-1 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		snap = tf.fab.FrontMetrics().Snapshot()
	}
	if got := snap.Get("shard.stream_conns"); got != nsubs-1 {
		t.Errorf("shard.stream_conns = %d, want %d still held", got, nsubs-1)
	}
	if got := snap.Get("shard.stream_frames"); got < 3*nsubs {
		t.Errorf("shard.stream_frames = %d, want >= %d", got, 3*nsubs)
	}
}

// TestPubSubDrainDeliversAckedThenCloses is the fabric-level zero-loss
// drain: every publish acked before the cascade must reach every
// subscriber before its stream ends with the terminator, on both fronts.
func TestPubSubDrainDeliversAckedThenCloses(t *testing.T) {
	for _, front := range []string{"conn", "mux"} {
		front := front
		t.Run(front, func(t *testing.T) {
			tf := startFabric(t, pubsubOpts(func(o *Options) {
				if front == "mux" {
					o.Mux = true
					o.Pollers = 2
				}
			}), nil)
			const nsubs, npubs = 3, 4
			subs := make([]*streamSub, nsubs)
			for i := range subs {
				subs[i] = openSub(t, tf.addr(), "dz")
			}
			for i := 0; i < npubs; i++ {
				if st := post(t, tf.addr(), "/publish?topic=dz", []byte(fmt.Sprintf("d%d", i))); st != 200 {
					t.Fatalf("publish %d: status %d", i, st)
				}
			}
			tf.drainAndWait(t)
			for si, ss := range subs {
				got := 0
				for {
					frame, term := ss.next(t, 20*time.Second)
					if term {
						break
					}
					if want := fmt.Sprintf("d%d", got); frame != want {
						t.Fatalf("sub %d frame %d = %q, want %q", si, got, frame, want)
					}
					got++
				}
				if got != npubs {
					t.Errorf("sub %d saw %d of %d acked publishes before the terminator", si, got, npubs)
				}
			}
		})
	}
}

// TestFabriczAggregatesPubsubCounters: the status page shows the
// broker's aggregate and the front's streaming instruments.
func TestFabriczAggregatesPubsubCounters(t *testing.T) {
	tf := startFabric(t, pubsubOpts(nil), nil)
	ss := openSub(t, tf.addr(), "st")
	if st := post(t, tf.addr(), "/publish?topic=st", []byte("x")); st != 200 {
		t.Fatal("publish failed")
	}
	if frame, term := ss.next(t, 20*time.Second); term || frame != "x" {
		t.Fatalf("frame = %q (term=%v)", frame, term)
	}
	kc := dialKA(t, tf.addr())
	if err := kc.send("/fabricz", "Connection: close"); err != nil {
		t.Fatal(err)
	}
	st, body, err := kc.recv(10 * time.Second)
	if err != nil || st != 200 {
		t.Fatalf("status %d err %v", st, err)
	}
	for _, want := range []string{"pubsub topics 1", "subs 1", "published 1", "delivered 1", "stream_conns 1", "routed_topic"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/fabricz body missing %q:\n%s", want, body)
		}
	}
}
