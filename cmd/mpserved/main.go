// Command mpserved runs the MP serving subsystem as a standalone daemon:
// a TCP/HTTP server whose entire request path — accept, admission,
// queueing, dispatch, handling — is scheduled as MP threads over procs
// and locks, never raw goroutines.  It serves the five evaluation
// kernels (/work/<name>), /echo, /compute, and the observability
// endpoints /metrics, /trace, /log.
//
// With -shards N (N > 1) or -mux it instead runs the sharded serving
// fabric: N independent backend shards — each its own proc platform,
// thread system, and metrics registry — behind one keep-alive front
// acceptor, with a rebalancer shifting proc allowance toward loaded
// shards every -rebalance front-clock ticks (see internal/shard).  The
// process hosts one goroutine per fabric runner, exactly the
// System.Run host role.  -mux swaps the per-connection front threads
// for a fixed pool of -pollers event-multiplexed poller threads
// (internal/netpoll), letting the front hold tens of thousands of
// mostly-idle keep-alive connections in parked state-machine form.
//
// SIGINT/SIGTERM triggers a graceful drain: single-server mode shrinks
// the processor allowance via proc.SetLimit so procs release themselves
// at safe points; fabric mode cascades front → shards with zero dropped
// in-flight requests.  Either way the process exits after printing a
// final metrics snapshot.
//
// Usage:
//
//	mpserved [-addr host:port] [-procs N] [-inflight N] [-queue N]
//	         [-deadline ticks] [-tick d] [-quantum d]
//	         [-trace out.json]
//	         [-shards N] [-rebalance ticks] [-steal N]
//	         [-mux] [-pollers N] [-maxconns N] [-idle ticks]
//	         [-pubsub] [-tenant-quota N] [-autoscale] [-max-shards N]
//	         [-mlalloc] [-ml-nursery W] [-ml-semi W] [-ml-chunk W]
//	         [-ml-region W]
//
// -mlalloc installs the allocating /work/mlalloc kernel backed by the
// ML heap (internal/mlheap + internal/gcsync): request threads attach
// as procs, allocate with bump pointers, and collect in parallel at
// clean-point barriers; every serving-path lock polls the GC section,
// so a stop-the-world is never stalled by a lock queue.
//
// In fabric mode the membership is elastic: the admin /scale?shards=N
// endpoint (and, with -autoscale, a load-driven autoscaler) acquires
// and releases whole shards at runtime with zero dropped in-flight
// requests and zero missing acked pub/sub deliveries (see
// internal/shard/member.go).  /fabricz reports the membership epoch
// and per-member phase.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/gcsync"
	"repro/internal/mlheap"
	"repro/internal/proc"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/threads"
	"repro/internal/trace"
)

// traceRing is the single server's trace ring size per proc.
const traceRing = 1 << 14

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "TCP listen address")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0), "processor allowance (max procs; fabric: per shard)")
	inflight := flag.Int("inflight", 64, "max concurrently-handled requests (fabric: per shard)")
	queueDepth := flag.Int("queue", 128, "accept queue depth (beyond this, shed with 503)")
	deadline := flag.Int64("deadline", 2000, "per-request deadline in clock ticks")
	tick := flag.Duration("tick", time.Millisecond, "wall duration of one clock tick")
	quantum := flag.Duration("quantum", 0, "preemption quantum (0 = cooperative only)")
	tracePath := flag.String("trace", "", "also write the trace to this file at exit")
	shards := flag.Int("shards", 1, "backend shard count (>1 runs the sharded fabric)")
	rebalance := flag.Int64("rebalance", 50, "fabric: rebalancer period in front ticks (0 disables)")
	steal := flag.Int("steal", 2, "fabric: min sibling ring occupancy before an idle shard steals (0 disables)")
	mux := flag.Bool("mux", false, "fabric: event-multiplexed front (poller pool instead of a thread per connection)")
	pollers := flag.Int("pollers", 2, "fabric: poller thread count in -mux mode")
	maxConns := flag.Int("maxconns", 0, "fabric: max concurrently-held front connections (0 = fabric default)")
	idle := flag.Int64("idle", 0, "fabric: keep-alive idle budget between requests, in front ticks (0 = deadline)")
	pubsubOn := flag.Bool("pubsub", false, "install the pub/sub broker (/publish, /subscribe, /unsubscribe)")
	tenantQuota := flag.Int("tenant-quota", 0, "pubsub: per-tenant publish admission rate, publishes/sec (0 = unlimited)")
	autoscale := flag.Bool("autoscale", false, "fabric: load-driven whole-shard scale up/down between 1 and -max-shards")
	maxShards := flag.Int("max-shards", 0, "fabric: membership ceiling (0 = 2x -shards, capped by the boot proc budget)")
	mlalloc := flag.Bool("mlalloc", false, "install the allocating /work/mlalloc kernel backed by the ML heap (fabric: one world per member)")
	mlNursery := flag.Int("ml-nursery", 1<<16, "mlalloc: nursery size in words")
	mlSemi := flag.Int("ml-semi", 1<<20, "mlalloc: semispace size in words")
	mlChunk := flag.Int("ml-chunk", 1024, "mlalloc: per-proc allocation chunk in words")
	mlRegion := flag.Int("ml-region", 512, "mlalloc: per-collector copy region in words")
	flag.Parse()

	if *shards > 1 || *mux {
		if *rebalance <= 0 {
			*rebalance = shard.NoRebalance
		}
		if *steal <= 0 {
			*steal = shard.NoSteal
		}
		runFabric(shard.Options{
			Addr:           *addr,
			Shards:         *shards,
			BackendProcs:   *procs,
			MaxInFlight:    *inflight,
			QueueDepth:     *queueDepth,
			DeadlineTicks:  *deadline,
			IdleTicks:      *idle,
			StealMin:       *steal,
			RebalanceTicks: *rebalance,
			Tick:           *tick,
			Quantum:        *quantum,
			MaxConns:       *maxConns,
			Mux:            *mux,
			Pollers:        *pollers,
			PubSub:         *pubsubOn,
			TenantQuota:    *tenantQuota,
			Autoscale:      *autoscale,
			MaxShards:      *maxShards,
			MLAlloc:        *mlalloc,
			MLNursery:      *mlNursery,
			MLSemi:         *mlSemi,
			MLChunk:        *mlChunk,
			MLRegion:       *mlRegion,
		})
		return
	}

	pl := proc.New(*procs)
	sys := threads.New(pl, threads.Options{Quantum: *quantum})

	// The tracer is private to the server (see serve.Options.Tracer): the
	// /trace endpoint's stop-the-world snapshot quiesces serve's own
	// emitters only.
	tr := trace.New(*procs, traceRing)

	// The ML world (if -mlalloc) must cover every concurrently-attached
	// handler thread, which admission bounds at -inflight.
	var world *gcsync.World
	if *mlalloc {
		world = gcsync.NewWorld(mlheap.Config{
			NurseryWords: *mlNursery,
			SemiWords:    *mlSemi,
			ChunkWords:   *mlChunk,
			RegionWords:  *mlRegion,
			Procs:        *inflight,
		})
	}

	srv, err := serve.New(sys, serve.Options{
		Addr:          *addr,
		MaxInFlight:   *inflight,
		QueueDepth:    *queueDepth,
		DeadlineTicks: *deadline,
		Tick:          *tick,
		Tracer:        tr,
		MLWorld:       world,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr.Enable()

	var wg sync.WaitGroup
	if *pubsubOn {
		broker := pubsub.New(sys, srv.Clock(), sys.Metrics(), pubsub.Options{
			QuotaPerSec: *tenantQuota,
			Tick:        *tick,
		})
		pubsub.Install(srv, broker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			broker.Runner()()
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "mpserved: %v, draining\n", s)
		srv.Drain()
	}()

	fmt.Printf("mpserved listening on %s (procs=%d inflight=%d queue=%d deadline=%d ticks pubsub=%v)\n",
		srv.Addr(), *procs, *inflight, *queueDepth, *deadline, *pubsubOn)
	start := time.Now()
	sys.Run(func() { srv.Serve() })
	wg.Wait()
	fmt.Printf("mpserved drained after %s; final metrics:\n", time.Since(start).Round(time.Millisecond))
	fmt.Print(sys.Metrics().Snapshot().Format())
	if world != nil {
		p := world.PauseSummary()
		fmt.Printf("%s\n", srv.MLStatsLine())
		fmt.Printf("gc_pause_us count=%d p50=%d p99=%d max=%d\n", p.Count, p.P50, p.P99, p.Max)
		fmt.Println("# mlheap registry")
		fmt.Print(world.Heap().Metrics().Snapshot().Format())
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tr.WriteChromeJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d events (%d dropped)\n", *tracePath, len(tr.Events()), tr.Dropped())
	}
}

// runFabric hosts the sharded serving fabric: one goroutine per runner
// (the front world plus each backend world), SIGTERM cascading the
// drain, and the merged metrics of every registry printed at exit.
func runFabric(opts shard.Options) {
	// Elastic membership needs a host-goroutine spawner: a shard acquired
	// at runtime brings its own serve and broker worlds, each a System.Run
	// host role exactly like the boot members' runners below.
	var wg sync.WaitGroup
	opts.Spawn = func(r func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r()
		}()
	}
	fab, err := shard.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "mpserved: %v, draining fabric\n", s)
		fab.Drain()
	}()

	front := "conn-threads"
	if opts.Mux {
		front = fmt.Sprintf("mux/pollers=%d", opts.Pollers)
	}
	fmt.Printf("mpserved fabric listening on %s (shards=%d procs/shard=%d inflight=%d rebalance=%d ticks front=%s autoscale=%v)\n",
		fab.Addr(), opts.Shards, opts.BackendProcs, opts.MaxInFlight, opts.RebalanceTicks,
		front, opts.Autoscale)
	start := time.Now()
	for _, r := range fab.Runners() {
		opts.Spawn(r)
	}
	wg.Wait()
	fmt.Printf("mpserved fabric drained after %s; final metrics:\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("# front registry")
	fmt.Print(fab.FrontMetrics().Snapshot().Format())
	for i := 0; i < fab.Shards(); i++ {
		fmt.Printf("# shard %d registry\n", i)
		fmt.Print(fab.Shard(i).System().Metrics().Snapshot().Format())
	}
}
