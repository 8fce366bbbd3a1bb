package main

// The benchmark's fixed vocabulary: four workloads and the metric names
// later issues cite.  BENCHMARK.json declares the same names (a test
// keeps the two in step) and carries the regression bounds.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// loop is how a workload's traffic is paced.
type loop int

const (
	closed loop = iota // next round after the previous one's replies
	open               // seeded Poisson schedule, depth 1, timed from due time
	fanout             // one closed-loop publisher, streaming subscribers
)

// workload is one named traffic mix and the server configuration it runs
// against.  flags hold only non-ablation mpserved flags (pinnedFlags).
type workload struct {
	name  string
	why   string
	flags []string
	loop  loop
	depth int // closed loop: pipelined requests per round
	conns int // connections; 0 means C = clamp(nproc, 2, 4)
	mlgc  bool
}

var workloads = []workload{
	{
		name:  "echo_hot",
		why:   "closed loop, 16 connections x 16 pipelined /echo at a 50us tick: saturates the CPU on the smallest-message path, where per-request savings in spinlock/shard/serve show",
		flags: []string{"-shards", "2", "-procs", "2", "-tick", "50us", "-deadline", "40000", "-rebalance", "0"},
		loop:  closed, depth: 16, conns: 16,
	},
	{
		name:  "echo_default",
		why:   "open loop, Poisson 200/400/800 req/s at the default 1ms tick, timed from due time: clock-bound, where only removing a park moves latency",
		flags: []string{"-shards", "2", "-procs", "2"},
		loop:  open, depth: 1,
	},
	{
		name:  "pubsub_fanout",
		why:   "one closed-loop publisher and streaming subscribers on one topic: long-lived chunked writes and topic-pinned routing, so a gain for /echo that costs streaming shows",
		flags: []string{"-shards", "2", "-procs", "2", "-pubsub"},
		loop:  fanout, depth: 1,
	},
	{
		name:  "alloc_gc",
		why:   "closed loop, 8 connections x 4 pipelined /work/mlalloc?n=511: handler-heavy, mlheap allocation and gcsync stop barriers dominate and the ring/reply path does little",
		flags: []string{"-shards", "2", "-procs", "2", "-tick", "50us", "-deadline", "40000", "-rebalance", "0", "-quantum", "1ms", "-mlalloc"},
		loop:  closed, depth: 4, conns: 8, mlgc: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// openRates is echo_default's offered rate in each of its five windows:
// 200 for one, 400 for three (the gated step), 800 for one.
var openRates = [numWindows]float64{200, 400, 400, 400, 800}

const (
	numWindows  = 5
	gatedRate   = 400
	p99LimitMs  = 10.0 // max_rate_ok: a step passes with p99 at or under this,
	minAchieved = 0.98 // achieved/offered at or over this, and nothing failed
)

// metricName is a metric the harness emits, with its unit.
type metricName struct{ name, unit string }

var endToEndMetrics = []metricName{
	{"setup_s", "s"},
	{"rps", "ops/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
}

// Two end-to-end figures do not fit BENCHMARK.json's relative bounds
// (one is legitimately 0, the other a step function), so the contract
// file lists them per layer; -compare applies their own rules.
var unboundedEndToEnd = []metricName{
	{"max_rate_ok", "req/s"}, // echo_default only; any drop is a regression
	{"fail_ratio", "ratio"},  // +0.001 absolute
}

var ladderMetrics = []metricName{
	{"net.loopback_rtt_ns", "ns"},
	{"spinlock.pair_ns", "ns"},
	{"spinlock.pair_contended_ns", "ns"},
	{"threads.yield_ns", "ns"},
	{"threads.fork_join_ns", "ns"},
	{"serve.park1_ns.tick1ms", "ns"},
	{"serve.park1_ns.tick50us", "ns"},
	{"serve.parse_ns", "ns"},
	{"serve.parse_ns.b1", "ns"},
	{"serve.render_ns", "ns"},
	{"serve.render_ns.b1", "ns"},
	{"serve.parse_allocs", "count"},
	{"serve.render_allocs", "count"},
	{"serve.submit_ns", "ns"},
	{"serve.submit_rtt_ns.tick1ms", "ns"},
	{"serve.submit_rtt_ns.tick50us", "ns"},
	{"serve.loopback_ns", "ns"},
	{"shard.loopback_ns", "ns"},
	{"shard.hop_ns", "ns"},
	{"ladder.residual_ratio", "ratio"},
	{"ladder.fabric_residual_ratio", "ratio"},
}

var registryMetrics = []metricName{
	{"shard.reply_parks_per_req", "ratio"},
	{"shard.reply_wait_ticks_mean", "ticks"},
	{"shard.reply_spins_per_req", "ratio"},
	{"shard.push_batch_mean", "count"},
	{"shard.write_batch_mean", "count"},
	{"serve.dispatch_batch_mean", "count"},
	{"shard.steals_per_kreq", "ratio"},
	{"shard.steal_abort_ratio", "ratio"},
	{"shard.ring_full", "count"},
	{"serve.shed_queue_full", "count"},
	{"serve.deadline_expired", "count"},
	{"threads.yields_per_req", "ratio"},
	{"threads.dispatches_per_req", "ratio"},
	{"proc.acquire_success_ratio", "ratio"},
	{"serve.queue_ticks_mean", "ticks"},
	{"serve.latency_ticks_mean", "ticks"},
	{"pubsub.fanout_mean", "count"},
	{"pubsub.delivery_lag_ticks_mean", "ticks"},
	{"pubsub.dropped_slow", "count"},
	{"shard.stream_frames_per_s", "1/s"},
	{"mlheap.minor_gcs_per_kreq", "ratio"},
	{"mlheap.gc_pause_ticks_mean", "ticks"},
	{"mlheap.gc_stop_ticks_mean", "ticks"},
	{"mlheap.par_copied_words_per_gc", "count"},
	{"gcsync.gc_helps_per_gc", "ratio"},
	{"gcsync.attach_busy_per_req", "ratio"},
	{"mpserved.goroutines", "count"},
	{"mpserved.os_threads", "count"},
	{"mpserved.heap_mb", "MB"},
	{"loadgen.sched_late_p99_ms", "ms"},
	{"loadgen.p999_ms", "ms"},
	{"loadgen.p99_ms.r200", "ms"},
	{"loadgen.p99_ms.r800", "ms"},
}

// perLayerMetrics is every name a traced run emits, in print order.
func perLayerMetrics() []metricName {
	out := append([]metricName(nil), ladderMetrics...)
	out = append(out, registryMetrics...)
	return append(out, unboundedEndToEnd...)
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}
