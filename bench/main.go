// Command bench is the repository's one-command benchmark: it builds
// cmd/mpserved, boots it as a child on an ephemeral port, drives four
// seeded workloads from one load-generator process, checks every reply,
// SIGTERM-drains the child and prints every metric by name and unit.
//
//	go run ./bench -seed 1                  all four workloads, end to end
//	go run ./bench -trace                   per-layer metrics: ladder rungs + registry ratios
//	go run ./bench -workload echo_hot       one workload; last stdout line is the result object
//	go run ./bench -compare a.json b.json   judge b against a by BENCHMARK.json's bounds
//
// See README.md in this directory for the workloads, the metrics and
// how they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured length of
// one workload (five windows of a fifth each).
const defaultSeconds = 20

// environment stamps a result file with where it was measured.
type environment struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Kernel      string `json:"kernel"`
	RlimitFiles uint64 `json:"rlimit_nofile"`
	Seed        int64  `json:"seed"`
}

func stamp(root string, seed int64) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	var rl syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl) == nil {
		env.RlimitFiles = rl.Cur
	}
	return env
}

// report is the result file: what -compare reads.  The server's tick and
// every other setting a workload runs under are its flags.
type report struct {
	Schema    string             `json:"schema"`
	Claim     *string            `json:"claim"` // always null: the harness measures, it asserts no gain
	Env       environment        `json:"env"`
	Traced    bool               `json:"traced"`
	Seconds   float64            `json:"seconds"`
	WallS     float64            `json:"wall_s"`
	Workloads map[string]*result `json:"workloads"`
	Ladder    map[string]value   `json:"ladder,omitempty"`
}

// normalizeArgs lets -trace be given bare (go run ./bench -trace) or
// with the driver's separate value (--trace 0): the flag package would
// stop parsing at a boolean flag's detached value.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	// Told to stop — interrupted, or stdout closed under it — the harness
	// must not leave its server behind.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-stop
		killRunning()
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed for every generated input (schedule, messages, payloads)")
	only := fs.String("workload", "", "run one workload and print the result object as the last line (default: all four)")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload: five windows of a fifth each, every window on a fresh child")
	trace := fs.Bool("trace", false, "per-layer run: ladder rungs with spans, plus registry ratios from shorter workload runs")
	quick := fs.Bool("quick", false, "smoke mode: one second per workload, short warm-ups, short ladder")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	selected := workloads
	if *only != "" {
		wl, ok := findWorkload(*only)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *only))
		}
		selected = []workload{wl}
	}
	if *quick {
		*seconds = 1
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		warm:    time.Second,
		conns:   min(max(runtime.NumCPU(), 2), 4),
		root:    root,
		outDir:  outDir,
	}
	if *quick {
		cfg.warm = 100 * time.Millisecond
	}

	bin, err := buildServer(root, outDir)
	if err != nil {
		return fail(err)
	}
	if err := checkFlags(bin); err != nil {
		return fail(err)
	}

	start := time.Now()
	rep := &report{
		Schema: "repro-bench/1", Env: stamp(root, *seed), Traced: *trace,
		Seconds: *seconds, Workloads: map[string]*result{},
	}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, RLIMIT_NOFILE %d, seed %d, %d connections\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NProc, rep.Env.GoMaxProcs, rep.Env.Kernel, rep.Env.RlimitFiles, *seed, cfg.conns)

	if *trace {
		// A traced run spends its time budget three ways: in-process
		// rungs, the two loopback children, and a shorter pass of each
		// workload for its registry ratios.
		lcfg := cfg
		lcfg.measure, lcfg.warm = cfg.measure/8, cfg.warm/4
		rep.Ladder, err = runLadder(lcfg, cfg.measure/4, filepath.Join(outDir, "ladder-trace.json"))
		if err != nil {
			return fail(err)
		}
		printLadder(stdout, rep.Ladder)
		cfg.measure, cfg.warm = 2*cfg.measure/5, cfg.warm/2
	}

	correct := true
	var last *result
	for _, wl := range selected {
		res, err := runWorkload(cfg, wl)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		if res.Failed > 0 {
			res.violate("%d of %d operations failed; first: %s", res.Failed, res.Attempted, res.firstBad)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(stderr, "bench: %s: VIOLATION: %s\n", wl.name, v)
			correct = false
		}
		rep.Workloads[wl.name] = res
		printResult(stdout, res, *trace)
		last = res
	}

	rep.WallS = time.Since(start).Seconds()
	name := fmt.Sprintf("result-seed%d.json", *seed)
	if *trace {
		name = fmt.Sprintf("trace-seed%d.json", *seed)
	}
	if *only != "" {
		name = *only + "-" + name
	}
	path := filepath.Join(outDir, name)
	if b, err := json.MarshalIndent(rep, "", "  "); err != nil {
		return fail(err)
	} else if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	rel, _ := filepath.Rel(root, path)
	fmt.Fprintf(stdout, "bench: total wall time %.1f s; result file %s\n", rep.WallS, rel)

	if *only != "" {
		// The driver's contract: one JSON object as the last line.
		metrics := map[string]value{}
		if *trace {
			for _, m := range perLayerMetrics() {
				v, ok := last.PerLayer[m.name]
				if !ok {
					v = rep.Ladder[m.name]
				}
				metrics[m.name] = value{v.Value, m.unit}
			}
		} else {
			for _, m := range endToEndMetrics {
				metrics[m.name] = value{last.EndToEnd[m.name].Value, m.unit}
			}
		}
		line, _ := json.Marshal(map[string]any{
			"correct": correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
		})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !correct {
		return 1
	}
	return 0
}

// printResult prints one workload's metrics by name and unit: end to end
// (untraced runs only) and then its registry ratios.
func printResult(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "\n== %s  (mpserved %s; %s loop, %d connections, %d windows x %.2f s)\n",
		res.Name, strings.Join(res.Flags, " "), res.Loop, res.Conns, numWindows, res.WindowS)
	fmt.Fprintf(w, "   attempted %d  ok %d  failed %d  latency samples %d\n", res.Attempted, res.OK, res.Failed, res.Samples)
	layer := registryMetrics
	if traced {
		layer = append(append([]metricName(nil), registryMetrics...), unboundedEndToEnd...)
	} else {
		all := append(append([]metricName(nil), endToEndMetrics...), unboundedEndToEnd...)
		for _, m := range all {
			s, ok := res.EndToEnd[m.name]
			if !ok {
				continue // max_rate_ok off the open-loop workload
			}
			fmt.Fprintf(w, "   %-28s %14.4f %-6s  q1 %.4f  q3 %.4f  (%d windows)\n", m.name, s.Value, m.unit, s.Q1, s.Q3, len(s.Windows))
		}
	}
	for _, m := range layer {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.name, res.PerLayer[m.name].Value, m.unit)
	}
}

// printLadder prints the rungs, and the residuals with their bases.
func printLadder(w io.Writer, ladder map[string]value) {
	fmt.Fprintf(w, "\n== ladder  (in-process rungs; loopback rungs over 2 connections)\n")
	for _, m := range ladderMetrics {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.name, ladder[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "   residual bases: serve.loopback_ns = %.0f ns/request, shard.loopback_ns = %.0f ns/request\n",
		ladder["serve.loopback_ns"].Value, ladder["shard.loopback_ns"].Value)
}
