package main

// Seeded, replayable inputs.  Everything the server receives — /echo
// message bytes and lengths, /work/mlalloc seeds, publish payloads, the
// open-loop arrival schedule — is generated here from -seed; the server
// never sees the seed or a workload name.

import (
	"fmt"
	"math/rand"
	"time"
)

// urlSafe is the alphabet of generated /echo messages and publish
// payloads: bytes the server's raw (undecoded) query parser passes
// through unchanged, and that can never look like a heartbeat frame.
const urlSafe = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"

// expect is what one request's reply must satisfy.
type expect struct {
	body []byte // /echo: the exact reply body
	seed int64  // /work/mlalloc: the seed sent (the fold checksum follows from it)
}

// round is one closed-loop step on one connection: depth pipelined
// requests written back to back, then depth replies read in order.
type round struct {
	wire []byte
	want []expect
}

// arrival is one open-loop request: due is its offset from the start of
// the schedule, conn the connection it is sent on.
type arrival struct {
	due  time.Duration
	conn int
	round
}

// step is one constant-rate segment of an open-loop schedule.
type step struct {
	rate float64 // req/s
	dur  time.Duration
}

func connRNG(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))
}

func randMsg(rng *rand.Rand, lo, hi int) []byte {
	b := make([]byte, lo+rng.Intn(hi-lo+1))
	for i := range b {
		b[i] = urlSafe[rng.Intn(len(urlSafe))]
	}
	return b
}

func echoRequest(msg []byte) []byte {
	return fmt.Appendf(nil, "GET /echo?msg=%s HTTP/1.1\r\nHost: bench\r\n\r\n", msg)
}

// echoRound builds depth pipelined GET /echo?msg=<2–64 seeded bytes>.
func echoRound(rng *rand.Rand, depth int) round {
	var r round
	for i := 0; i < depth; i++ {
		msg := randMsg(rng, 2, 64)
		r.wire = append(r.wire, echoRequest(msg)...)
		r.want = append(r.want, expect{body: msg})
	}
	return r
}

// mlallocCells is the list length every /work/mlalloc request builds:
// the longest the seed commit's handler folds correctly.  From 512 cells
// up its fold loop takes a GC clean point every 512 cells while its list
// cursor is not a registered root, and a collection landing there sends
// the fold down another request's cells (about 1 reply in 30,000 at
// n=2048 came back with cells≠n and a wrong checksum).
const mlallocCells = 511

// mlallocRound builds depth pipelined GET /work/mlalloc?n=511&seed=<seeded>.
func mlallocRound(rng *rand.Rand, depth int) round {
	var r round
	for i := 0; i < depth; i++ {
		seed := 1 + rng.Int63n(1<<20)
		r.wire = fmt.Appendf(r.wire, "GET /work/mlalloc?n=%d&seed=%d HTTP/1.1\r\nHost: bench\r\n\r\n", mlallocCells, seed)
		r.want = append(r.want, expect{seed: seed})
	}
	return r
}

// roundPool is how many distinct rounds each closed-loop connection
// cycles through: large enough that the request stream does not repeat
// within a branch-predictor's or an allocator's memory, small enough to
// generate in milliseconds.
const roundPool = 512

// genRounds returns each connection's cyclic pool of closed-loop rounds.
func genRounds(seed int64, conns, depth int, build func(*rand.Rand, int) round) [][]round {
	out := make([][]round, conns)
	for c := range out {
		rng := connRNG(seed, c)
		out[c] = make([]round, roundPool)
		for i := range out[c] {
			out[c][i] = build(rng, depth)
		}
	}
	return out
}

// genSchedule draws seeded Poisson arrivals (exponential gaps) through
// the steps in order and deals them round-robin onto conns connections,
// each carrying one depth-1 /echo request.
func genSchedule(seed int64, conns int, steps []step) []arrival {
	rng := connRNG(seed, -1)
	var out []arrival
	var base time.Duration
	for _, st := range steps {
		t := base
		for {
			t += time.Duration(rng.ExpFloat64() / st.rate * float64(time.Second))
			if t >= base+st.dur {
				break
			}
			out = append(out, arrival{due: t, conn: len(out) % conns, round: echoRound(rng, 1)})
		}
		base += st.dur
	}
	return out
}

// payloadBytes is the size of every published frame.
const payloadBytes = 256

// publishPayload is publish number id's frame: a 16-digit hex id, a
// space, then seeded filler to payloadBytes.  Subscribers regenerate it
// to check the frame they were handed byte for byte.
func publishPayload(seed int64, id int) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)*104729 + 2))
	b := fmt.Appendf(make([]byte, 0, payloadBytes), "%016x ", id)
	for len(b) < payloadBytes {
		b = append(b, urlSafe[rng.Intn(len(urlSafe))])
	}
	return b
}

func publishRequest(payload []byte) []byte {
	b := fmt.Appendf(nil, "POST /publish?topic=t0 HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n", len(payload))
	return append(b, payload...)
}
