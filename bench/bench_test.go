package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// Same seed ⇒ byte-identical request stream and schedule; another seed ⇒
// different ones.
func TestSeededInputsReplay(t *testing.T) {
	steps := []step{{200, time.Second}, {400, time.Second}}
	type inputs struct {
		echo, ml [][]round
		sched    []arrival
		payloads [][]byte
	}
	gen := func(seed int64) inputs {
		in := inputs{
			echo:  genRounds(seed, 2, 16, echoRound),
			ml:    genRounds(seed, 2, 4, mlallocRound),
			sched: genSchedule(seed, 2, steps),
		}
		for id := 0; id < 8; id++ {
			in.payloads = append(in.payloads, publishPayload(seed, id))
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different inputs")
	}
	if reflect.DeepEqual(a.echo, c.echo) || reflect.DeepEqual(a.ml, c.ml) ||
		reflect.DeepEqual(a.sched, c.sched) || reflect.DeepEqual(a.payloads, c.payloads) {
		t.Fatal("different seeds generated identical inputs")
	}
	if reflect.DeepEqual(a.echo[0], a.echo[1]) {
		t.Fatal("two connections were dealt the same request stream")
	}
	for _, r := range a.echo[0] {
		if len(r.want) != 16 {
			t.Fatalf("round has %d requests, want 16", len(r.want))
		}
		for _, w := range r.want {
			if len(w.body) < 2 || len(w.body) > 64 {
				t.Fatalf("message length %d outside 2..64", len(w.body))
			}
		}
	}
	if n := len(a.sched); n < 450 || n > 750 {
		t.Fatalf("schedule has %d arrivals for an expected 600", n)
	}
	if !sort.SliceIsSorted(a.sched, func(i, j int) bool { return a.sched[i].due < a.sched[j].due }) {
		t.Fatal("schedule is not in due order")
	}
	if p := a.payloads[3]; len(p) != payloadBytes || !bytes.HasPrefix(p, []byte("0000000000000003 ")) {
		t.Fatalf("payload 3 is %q", p)
	}
}

// stallServer is a minimal in-harness /echo server that answers
// instantly except for one request, which it sits on for stall.
func stallServer(t *testing.T, stallAt int, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		for n := 0; ; n++ {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			for {
				if h, err := br.ReadString('\n'); err != nil || h == "\r\n" {
					break
				}
			}
			msg := strings.TrimPrefix(strings.Fields(line)[1], "/echo?msg=")
			if n == stallAt {
				time.Sleep(stall)
			}
			fmt.Fprintf(nc, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(msg), msg)
		}
	}()
	return ln.Addr().String()
}

// A 200 ms server stall must show in the open-loop latencies of every
// request that was due during it (coordinated omission not hidden),
// while the generator's own lateness stays small.
func TestOpenLoopCountsStall(t *testing.T) {
	const rate, stall = 200, 200 * time.Millisecond
	addr := stallServer(t, 50, stall)
	sched := genSchedule(3, 1, []step{{rate, time.Second}})
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	base := time.Now()
	w := period{start: base, end: base.Add(time.Second)}
	tl := newTally()
	openLoop(c, sched, base, w, tl)
	if tl.err != nil || tl.failed != 0 {
		t.Fatalf("run failed: %v, %d failed", tl.err, tl.failed)
	}
	if int(tl.ok) != len(sched) {
		t.Fatalf("ok %d of %d scheduled", tl.ok, len(sched))
	}
	delayed := 0
	for _, ns := range tl.lat {
		if time.Duration(ns) > stall/4 {
			delayed++
		}
	}
	// rate × stall = 40 requests fell due during the stall; at least the
	// first three quarters of them waited more than a quarter of it.
	if delayed < 25 {
		t.Errorf("only %d requests show the stall; a closed-loop clock would show 1", delayed)
	}
	if p99 := quantile(sortedMs(tl.lat), 0.99); p99 < 100 {
		t.Errorf("p99 %.1f ms does not show a %v stall", p99, stall)
	}
	if late := quantile(sortedMs(tl.late), 0.99); late > 50 {
		t.Errorf("generator lateness p99 %.1f ms: the stall leaked into sched_late", late)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"--workload echo_hot --seed 3 --seconds 20 --trace 0", "--workload echo_hot --seed 3 --seconds 20 -trace=0"},
		{"--trace 1 --seed 3", "-trace=1 --seed 3"},
		{"-trace", "-trace"},
		{"-trace -seed 4", "-trace -seed 4"},
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(tc.in)), " "); got != tc.want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseDump(t *testing.T) {
	d := parseDump(`mpserved fabric drained after 1s; final metrics:
# front registry
  shard.reply_park                     706
  shard.push_batch                    2575  mean 14.3
# shard 0 registry
  serve.responded               18239
  serve.queue_ticks             100  mean 2.0
# shard 1 registry
  serve.responded               18557
  serve.queue_ticks             300  mean 4.0
  serve.write_batch                 0
`)
	if got := d.sum("serve.responded"); got != 18239+18557 {
		t.Errorf("sum = %v", got)
	}
	if got := d.mean("serve.queue_ticks"); got != 3.5 {
		t.Errorf("weighted mean = %v, want 3.5", got)
	}
	if got := d["front"]["shard.push_batch"]; got != (entry{2575, 14.3}) {
		t.Errorf("histogram entry = %+v", got)
	}
	if d.mean("serve.write_batch") != 0 || d.sum("absent") != 0 {
		t.Error("empty and absent instruments must read 0")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The names and units the harness emits are exactly those BENCHMARK.json
// declares.
func TestNamesMatchContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	var declared, emitted []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name+" :: "+w.Why)
	}
	for _, w := range workloads {
		emitted = append(emitted, w.name+" :: "+w.why)
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why too long", w.name)
		}
		for _, f := range w.flags {
			if name, isFlag := strings.CutPrefix(f, "-"); isFlag && !slices.Contains(pinnedFlags, name) {
				t.Errorf("workload %s passes unpinned flag -%s", w.name, name)
			}
		}
	}
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("workloads differ:\n BENCHMARK.json %q\n harness        %q", declared, emitted)
	}
	check := func(kind string, decl []contractMetric, emit []metricName, bounded bool) {
		want := map[string]string{}
		for _, m := range emit {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s metric name %q is not well formed", kind, m.name)
			}
			want[m.name] = m.unit
		}
		got := map[string]string{}
		for _, m := range decl {
			got[m.Name] = m.Unit
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ:\n BENCHMARK.json %v\n harness        %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	check("per_layer", spec.PerLayer, perLayerMetrics(), false)
}

func writeReport(t *testing.T, dir, name string, e2e map[string]summary) string {
	rep := report{Workloads: map[string]*result{"echo_hot": {Name: "echo_hot", EndToEnd: e2e}}}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	steady := func(v float64) summary {
		return summarize("x", []float64{v * 0.995, v, v, v, v * 1.005})
	}
	noisy := func(v float64) summary {
		return summarize("x", []float64{v * 0.6, v * 0.8, v, v * 1.2, v * 1.4})
	}
	base := map[string]summary{
		"rps": steady(10000), "p50_ms": steady(2), "p99_ms": noisy(10),
		"fail_ratio": steady(0), "max_rate_ok": steady(400),
	}
	a := writeReport(t, dir, "a.json", base)

	var out bytes.Buffer
	same := writeReport(t, dir, "same.json", base)
	if code := compareFiles(root, a, same, &out, &out); code != 0 {
		t.Fatalf("identical files: exit %d\n%s", code, &out)
	}
	if !regexp.MustCompile(`p99_ms .* unresolved`).Match(out.Bytes()) {
		t.Errorf("a metric whose windows spread past its bound must read unresolved:\n%s", &out)
	}
	if !regexp.MustCompile(`rps .* ok`).Match(out.Bytes()) {
		t.Errorf("steady identical rps must read ok:\n%s", &out)
	}

	for name, change := range map[string]func(m map[string]summary){
		"rps down a quarter":     func(m map[string]summary) { m["rps"] = steady(7500) },
		"p50 up a quarter":       func(m map[string]summary) { m["p50_ms"] = steady(2.5) },
		"a failure in a hundred": func(m map[string]summary) { m["fail_ratio"] = steady(0.01) },
		"max rate drops a step":  func(m map[string]summary) { m["max_rate_ok"] = steady(200) },
	} {
		worse := map[string]summary{}
		for k, v := range base {
			worse[k] = v
		}
		change(worse)
		out.Reset()
		if code := compareFiles(root, a, writeReport(t, dir, "b.json", worse), &out, &out); code == 0 || !bytes.Contains(out.Bytes(), []byte("REGRESSION")) {
			t.Errorf("%s: exit %d, want a regression\n%s", name, code, &out)
		}
	}

	better := map[string]summary{}
	for k, v := range base {
		better[k] = v
	}
	better["rps"], better["p50_ms"] = steady(14000), steady(1.2)
	out.Reset()
	if code := compareFiles(root, a, writeReport(t, dir, "c.json", better), &out, &out); code != 0 {
		t.Errorf("an improvement must not fail: exit %d\n%s", code, &out)
	}
}

// The tier-1 smoke: boot the real child, run the ladder and all four
// workloads in quick mode, and check that what comes out carries every
// declared name and no oracle violation.  Only correctness is asserted —
// quick windows are too short to mean anything as measurements.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots mpserved; skipped under -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-trace", "-seed", "5"}, &out, &errOut); code != 0 {
		t.Fatalf("bench -quick -trace exited %d\n%s\n%s", code, &errOut, &out)
	}
	b, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-seed5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Claim != nil {
		t.Error(`result file must carry "claim": null`)
	}
	for _, m := range ladderMetrics {
		if _, ok := rep.Ladder[m.name]; !ok {
			t.Errorf("ladder did not emit %s", m.name)
		}
	}
	if len(rep.Ladder) != len(ladderMetrics) {
		t.Errorf("ladder emitted %d metrics, %d declared", len(rep.Ladder), len(ladderMetrics))
	}
	for _, wl := range workloads {
		res := rep.Workloads[wl.name]
		if res == nil {
			t.Errorf("%s did not run", wl.name)
			continue
		}
		if res.Attempted == 0 || res.Failed != 0 || len(res.Violations) != 0 {
			t.Errorf("%s: attempted %d failed %d violations %v", wl.name, res.Attempted, res.Failed, res.Violations)
		}
		for _, m := range append(append([]metricName(nil), registryMetrics...), unboundedEndToEnd...) {
			if _, ok := res.PerLayer[m.name]; !ok {
				t.Errorf("%s did not emit %s", wl.name, m.name)
			}
		}
		if want := len(registryMetrics) + len(unboundedEndToEnd); len(res.PerLayer) != want {
			t.Errorf("%s emitted %d per-layer metrics, %d declared", wl.name, len(res.PerLayer), want)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "out", "ladder-trace.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}

	// One untraced workload through the driver's calling convention: the
	// last line must be the result object with every end-to-end metric.
	out.Reset()
	errOut.Reset()
	args := strings.Fields("-quick --workload echo_default --seed 5 --seconds 1 --trace 0")
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("bench %v exited %d\n%s\n%s", args, code, &errOut, &out)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result object %+v", line)
	}
	for _, m := range endToEndMetrics {
		if v, ok := line.Metrics[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v", m.name, v)
		}
	}
	if len(line.Metrics) != len(endToEndMetrics) {
		t.Errorf("result object has %d metrics, %d declared", len(line.Metrics), len(endToEndMetrics))
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke took %v", d)
	}
}
