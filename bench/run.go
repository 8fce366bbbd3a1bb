package main

// One workload, start to finish.  Each of the five measured windows runs
// against a child of its own: build, boot, warm up, measure one window
// with nothing else runnable in the harness, scrape status once,
// SIGTERM-drain, check the oracle.  How fast a given mpserved process
// runs is settled when it starts (about one process in four comes up
// ~20 % faster on echo_hot's traffic and stays so), so windows of one
// process agree with each other and say little about the next; a median
// over five processes is what repeats from run to run.

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"time"
)

// runConfig is everything a run's shape depends on besides the workload.
type runConfig struct {
	seed    int64
	measure time.Duration // all five windows together
	warm    time.Duration // discarded traffic before each window
	conns   int
	root    string
	outDir  string
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	Name       string             `json:"name"`
	Flags      []string           `json:"flags"`
	Loop       string             `json:"loop"`
	Conns      int                `json:"conns"`
	WindowS    float64            `json:"window_s"`
	Attempted  int64              `json:"attempted"`
	OK         int64              `json:"ok"`
	Failed     int64              `json:"failed"`
	Samples    int                `json:"latency_samples"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	PerLayer   map[string]value   `json:"per_layer"`
	Violations []string           `json:"violations"`

	firstBad string // the first wrong reply, quoted in the failure message
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (l loop) String() string { return [...]string{"closed", "open", "fanout"}[l] }

// window is what one child's measured window yields.
type window struct {
	setupS   float64 // go build + boot → first /healthz 200
	tally    *tally  // one window long
	cpuTicks int64   // child utime+stime across the window
	rssMB    float64
	offered  int64 // open loop: requests that fell due in the window
	dump     dump  // the child's drain dump
	ml       dump  // its ML worlds' registries (alloc_gc)
	gauges   [3]value
}

// runWorkload measures one workload.  A returned error means the run
// could not be made at all; oracle failures land in result.Violations.
func runWorkload(cfg runConfig, wl workload) (*result, error) {
	if wl.conns > 0 {
		cfg.conns = wl.conns
	}
	res := &result{
		Name: wl.name, Flags: wl.flags, Loop: wl.loop.String(), Conns: cfg.conns,
		EndToEnd: map[string]summary{}, PerLayer: map[string]value{},
	}
	winLen := cfg.measure / numWindows
	res.WindowS = winLen.Seconds()

	// Inputs first: generating them is the harness's work, not set-up.
	var rounds [][]round
	if wl.loop == closed {
		build := echoRound
		if wl.mlgc {
			build = mlallocRound
		}
		rounds = genRounds(cfg.seed, cfg.conns, wl.depth, build)
	}

	wins := make([]*window, numWindows)
	all, allML := dump{}, dump{}
	for k := range wins {
		win, err := runWindow(cfg, wl, k, winLen, rounds, res)
		if err != nil {
			return nil, err
		}
		wins[k] = win
		for section, reg := range win.dump {
			all[fmt.Sprintf("child %d %s", k, section)] = reg
		}
		for section, reg := range win.ml {
			allML[fmt.Sprintf("child %d %s", k, section)] = reg
		}
	}
	reduce(res, wl, winLen, wins)
	registryRatios(res, all, allML, (cfg.warm+winLen).Seconds()*numWindows)
	g := wins[numWindows-1].gauges
	res.PerLayer["mpserved.goroutines"], res.PerLayer["mpserved.os_threads"], res.PerLayer["mpserved.heap_mb"] = g[0], g[1], g[2]
	return res, nil
}

// runWindow boots a child and measures window k against it.
func runWindow(cfg runConfig, wl workload, k int, winLen time.Duration, rounds [][]round, res *result) (*window, error) {
	win := &window{tally: newTally()}
	seed := cfg.seed*numWindows + int64(k) // every window draws its own schedule and payloads
	var schedule []arrival
	if wl.loop == open {
		schedule = genSchedule(seed, cfg.conns, []step{{openRates[k], cfg.warm + winLen}})
	}

	t0 := time.Now()
	bin, err := buildServer(cfg.root, cfg.outDir)
	if err != nil {
		return nil, err
	}
	ch, err := boot(bin, wl.flags)
	if err != nil {
		return nil, err
	}
	win.setupS = time.Since(t0).Seconds()
	defer func() {
		if ch != nil {
			ch.kill()
		}
	}()

	nGen := cfg.conns
	if wl.loop == fanout {
		nGen = 1
	}
	clients := make([]*client, nGen)
	for i := range clients {
		if clients[i], err = dial(ch.addr); err != nil {
			return nil, err
		}
		defer clients[i].close()
	}
	var subs []*subscriber
	if wl.loop == fanout {
		for i := 0; i < max(cfg.conns-1, 1); i++ {
			s, err := subscribe(ch.addr)
			if err != nil {
				return nil, err
			}
			defer s.c.close()
			subs = append(subs, s)
		}
	}

	base := time.Now()
	w := period{start: base.Add(cfg.warm), end: base.Add(cfg.warm + winLen)}
	tallies := make([]*tally, nGen+len(subs))
	for i := range tallies {
		tallies[i] = newTally()
	}
	var lg *ledger
	if wl.loop == fanout {
		lg = newLedger(base)
	}
	var gens, readers sync.WaitGroup
	for i, c := range clients {
		gens.Add(1)
		go func() {
			defer gens.Done()
			switch wl.loop {
			case closed:
				check := checkEcho
				if wl.mlgc {
					check = checkMLAlloc
				}
				closedLoop(c, rounds[i], check, w, tallies[i])
			case open:
				var mine []arrival
				for _, a := range schedule {
					if a.conn == i {
						mine = append(mine, a)
					}
				}
				openLoop(c, mine, base, w, tallies[i])
			case fanout:
				publish(c, seed, lg, w, tallies[i])
			}
		}()
	}
	for i, s := range subs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			s.read(seed, lg, w, tallies[nGen+i], w.end.Add(drainLimit+2*ioTimeout))
		}()
	}

	// The measured window: this goroutine only sleeps to its two edges
	// and reads one /proc line at each.
	time.Sleep(time.Until(w.start))
	cpu0 := ch.cpuTicks()
	time.Sleep(time.Until(w.end))
	win.cpuTicks = ch.cpuTicks() - cpu0
	gens.Wait()

	if wl.loop == fanout {
		// Every acked publish owes every held subscriber a frame; give the
		// stream pump a moment to flush the tail before judging.
		lastAcked := int64(-1)
		for id := lg.n - 1; id >= 0; id-- {
			if lg.acked[id] {
				lastAcked = int64(id)
				break
			}
		}
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			behind := false
			for _, s := range subs {
				behind = behind || s.last.Load() < lastAcked
			}
			if !behind {
				break
			}
		}
	}

	// Status reads come after the window, never inside it.
	win.gauges = fabricz(ch.addr)
	if wl.mlgc {
		win.ml = scrapeMLHeap(ch.addr)
	}
	win.rssMB = ch.rssMB()

	win.dump, err = ch.drain()
	ch = nil
	readers.Wait()
	if err != nil {
		res.violate("window %d: drain: %v", k, err)
	}

	for _, t := range tallies {
		win.tally.merge(t)
	}
	if win.tally.err != nil {
		res.violate("window %d: load generator: %v", k, win.tally.err)
	}
	if res.firstBad == "" {
		res.firstBad = win.tally.bad
	}
	if wl.loop == fanout {
		judgeLedger(lg, subs, w, win.tally, res)
	}
	if wl.mlgc && win.tally.gcLast <= win.tally.gcFirst {
		res.violate("window %d: mlalloc gcs= did not advance (%d → %d)", k, win.tally.gcFirst, win.tally.gcLast)
	}
	for _, a := range schedule {
		if w.holds(base.Add(a.due)) {
			win.offered++
		}
	}
	checkDump(res, k, win.dump, win.tally.ok)
	return win, nil
}

// judgeLedger settles pub/sub: a publish in the measured window is ok
// only if it was acked and every held subscriber read it exactly once;
// frames out of order or corrupt each count as a failure of their own.
func judgeLedger(lg *ledger, subs []*subscriber, w period, t *tally, res *result) {
	for id := 0; id < lg.n; id++ {
		if !w.holds(lg.sentAt(id)) {
			continue
		}
		good := lg.acked[id]
		for _, s := range subs {
			good = good && s.got[id] == 1
		}
		if good {
			t.ok++
		} else {
			t.failed++
		}
	}
	for i, s := range subs {
		if s.wrong > 0 {
			t.failed += int64(s.wrong)
			res.violate("subscriber %d read %d frames out of order or corrupt", i, s.wrong)
		}
	}
}

// reduce turns the windows into the end-to-end metrics and the
// generator's own per-layer figures.
func reduce(res *result, wl workload, winLen time.Duration, wins []*window) {
	var setup, rss, rps, p50, p99, d50, d99, cpuOp []float64
	var merged, late []int64
	for k, win := range wins {
		t := win.tally
		res.OK += t.ok
		res.Failed += t.failed
		res.Samples += len(t.lat)
		setup = append(setup, win.setupS)
		rss = append(rss, win.rssMB)
		late = append(late, t.late...)
		if wl.loop == open && openRates[k] != gatedRate {
			continue // the reported values are the gated step's windows
		}
		ops := t.ok
		if wl.loop == open {
			ops = t.done
		}
		rps = append(rps, float64(ops)/winLen.Seconds())
		// Delivery is when the payload reaches its consumer: a subscriber
		// on the streaming path, the requester itself everywhere else.
		lat := sortedMs(t.lat)
		dl := lat
		if wl.loop == fanout {
			dl = sortedMs(t.deliver)
		}
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		d50 = append(d50, quantile(dl, 0.50))
		d99 = append(d99, quantile(dl, 0.99))
		cpuOp = append(cpuOp, ratio(float64(win.cpuTicks)*clockTickUs, float64(t.ok)))
		merged = append(merged, t.lat...)
	}
	res.Attempted = res.OK + res.Failed
	res.EndToEnd["setup_s"] = summarize("s", setup)
	res.EndToEnd["rps"] = summarize("ops/s", rps)
	res.EndToEnd["p50_ms"] = summarize("ms", p50)
	res.EndToEnd["p99_ms"] = summarize("ms", p99)
	res.EndToEnd["deliver_p50_ms"] = summarize("ms", d50)
	res.EndToEnd["deliver_p99_ms"] = summarize("ms", d99)
	res.EndToEnd["cpu_us_per_op"] = summarize("us", cpuOp)
	// VmHWM is a high-water mark, so its figure is the peak over the five
	// children, not their median (alloc_gc children come up at 66 or 74 MB
	// depending on whether a major collection touched the second semispace).
	peak := summarize("MB", rss)
	peak.Value = slices.Max(rss)
	res.EndToEnd["rss_mb"] = peak
	failRatio := ratio(float64(res.Failed), float64(res.Attempted))
	res.EndToEnd["fail_ratio"] = summarize("ratio", []float64{failRatio})

	res.PerLayer["fail_ratio"] = value{failRatio, "ratio"}
	res.PerLayer["max_rate_ok"] = value{0, "req/s"}
	res.PerLayer["loadgen.p999_ms"] = value{quantile(sortedMs(merged), 0.999), "ms"}
	res.PerLayer["loadgen.sched_late_p99_ms"] = value{quantile(sortedMs(late), 0.99), "ms"}
	res.PerLayer["loadgen.p99_ms.r200"] = value{0, "ms"}
	res.PerLayer["loadgen.p99_ms.r800"] = value{0, "ms"}
	if wl.loop != open {
		return
	}

	// Open loop: judge each offered rate as a step.
	best := 0.0
	for _, rate := range []float64{200, 400, 800} {
		var lat []int64
		var off, done, failed int64
		for k, win := range wins {
			if openRates[k] == rate {
				lat = append(lat, win.tally.lat...)
				off, done, failed = off+win.offered, done+win.tally.done, failed+win.tally.failed
			}
		}
		p99 := quantile(sortedMs(lat), 0.99)
		if rate != gatedRate {
			res.PerLayer[fmt.Sprintf("loadgen.p99_ms.r%.0f", rate)] = value{p99, "ms"}
		}
		if p99 <= p99LimitMs && failed == 0 && float64(done) >= minAchieved*float64(off) {
			best = math.Max(best, rate)
		}
	}
	res.EndToEnd["max_rate_ok"] = summarize("req/s", []float64{best})
	res.PerLayer["max_rate_ok"] = value{best, "req/s"}
}

// checkDump applies the drain oracle to one child: the server's own
// books balance and cover every reply the client counted.
func checkDump(res *result, k int, d dump, clientOK int64) {
	if len(d) == 0 {
		return // drain already reported why there is no dump
	}
	dis, han, rsp := d.sum("serve.dispatched"), d.sum("serve.handled"), d.sum("serve.responded")
	// The three agree on a fabric, where each is counted per forwarded
	// request.  A single server (the ladder's -shards 1 child) dispatches
	// whole connections and answers the harness's /fabricz read with an
	// unhandled 404, so only the floor below applies to it.
	if _, fabric := d["front"]; fabric && (dis != han || han != rsp) {
		res.violate("window %d: drain dump: dispatched %.0f, handled %.0f, responded %.0f differ", k, dis, han, rsp)
	}
	if rsp < float64(clientOK) {
		res.violate("window %d: drain dump: server responded %.0f < client ok %d", k, rsp, clientOK)
	}
}

var fabriczLine = regexp.MustCompile(`goroutines (\d+) threads (\d+) heap_alloc (\d+)`)

// fabricz reads the front's status page for the process-level gauges:
// goroutines, OS threads, Go heap in MB.
func fabricz(addr string) [3]value {
	_, body, _ := get(addr, "/fabricz")
	var g, t, h float64
	if m := fabriczLine.FindSubmatch(body); m != nil {
		g, _ = strconv.ParseFloat(string(m[1]), 64)
		t, _ = strconv.ParseFloat(string(m[2]), 64)
		h, _ = strconv.ParseFloat(string(m[3]), 64)
	}
	return [3]value{{g, "count"}, {t, "count"}, {h / (1 << 20), "MB"}}
}

// scrapeMLHeap collects every shard's ML-heap registry.  The fabric's
// drain dump omits the ML worlds' registries, so they are read through
// /metrics after the window; the sticky-routing header steers the scrape
// from shard to shard, and a shard is recognised by its registry text
// (nothing allocates between scrapes, so repeats are identical).
func scrapeMLHeap(addr string) dump {
	out := dump{}
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		_, body, err := get(addr, "/metrics", fmt.Sprintf("X-Shard-Key: scrape-%d", i))
		if err != nil {
			continue
		}
		reg := parseDump(string(body))["mlheap"]
		if key := fmt.Sprint(reg); reg != nil && !seen[key] {
			seen[key] = true
			out[fmt.Sprint(len(out))] = reg
		}
	}
	return out
}

// registryRatios reduces the drain dumps (front + every shard of every
// child, summed) to per-request ratios, normalised by serve.responded
// of the same dumps.
func registryRatios(res *result, d, ml dump, seconds float64) {
	req := d.sum("serve.responded")
	set := func(name, unit string, v float64) { res.PerLayer[name] = value{v, unit} }
	set("shard.reply_parks_per_req", "ratio", ratio(d.sum("shard.reply_park"), req))
	set("shard.reply_wait_ticks_mean", "ticks", d.mean("shard.reply_wait_ticks"))
	set("shard.reply_spins_per_req", "ratio", ratio(d.sum("shard.reply_spin"), req))
	set("shard.push_batch_mean", "count", d.mean("shard.push_batch"))
	set("shard.write_batch_mean", "count", d.mean("shard.write_batch"))
	set("serve.dispatch_batch_mean", "count", d.mean("serve.dispatch_batch"))
	set("shard.steals_per_kreq", "ratio", 1000*ratio(d.sum("shard.steals"), req))
	set("shard.steal_abort_ratio", "ratio", ratio(d.sum("shard.steal_aborts"), d.sum("shard.steal_attempts")))
	set("shard.ring_full", "count", d.sum("shard.ring_full"))
	set("serve.shed_queue_full", "count", d.sum("serve.shed_queue_full"))
	set("serve.deadline_expired", "count", d.sum("serve.deadline_expired"))
	set("threads.yields_per_req", "ratio", ratio(d.sum("threads.yields"), req))
	set("threads.dispatches_per_req", "ratio", ratio(d.sum("threads.dispatches"), req))
	set("proc.acquire_success_ratio", "ratio", ratio(d.sum("proc.acquired"), d.sum("proc.acquired")+d.sum("proc.refused")))
	set("serve.queue_ticks_mean", "ticks", d.mean("serve.queue_ticks"))
	set("serve.latency_ticks_mean", "ticks", d.mean("serve.latency_ticks"))
	set("pubsub.fanout_mean", "count", d.mean("pubsub.fanout"))
	set("pubsub.delivery_lag_ticks_mean", "ticks", d.mean("pubsub.delivery_lag_ticks"))
	set("pubsub.dropped_slow", "count", d.sum("pubsub.dropped_slow"))
	set("shard.stream_frames_per_s", "1/s", d.sum("shard.stream_frames")/seconds)
	gcs := ml.sum("mlheap.minor_gcs") + ml.sum("mlheap.major_gcs")
	set("mlheap.minor_gcs_per_kreq", "ratio", 1000*ratio(ml.sum("mlheap.minor_gcs"), req))
	set("mlheap.gc_pause_ticks_mean", "ticks", ml.mean("mlheap.gc_pause_ticks"))
	set("mlheap.gc_stop_ticks_mean", "ticks", ml.mean("mlheap.gc_stop_ticks"))
	set("mlheap.par_copied_words_per_gc", "count", ratio(ml.total("mlheap.par_copied_words"), gcs))
	set("gcsync.gc_helps_per_gc", "ratio", ratio(ml.sum("gcsync.gc_helps"), gcs))
	set("gcsync.attach_busy_per_req", "ratio", ratio(ml.sum("gcsync.attach_busy"), req))
}
