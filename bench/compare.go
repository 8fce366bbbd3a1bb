package main

// bench -compare a.json b.json: judge result file b against a, one row
// per (end-to-end metric, workload), by the bounds BENCHMARK.json fixes.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// failRatioSlack is fail_ratio's bound: absolute, because its healthy
// value is 0 and a share of 0 bounds nothing.
const failRatioSlack = 0.001

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictUnresolved verdict = "unresolved" // window spread is wider than the bound: cannot call it unchanged
	verdictRegression verdict = "REGRESSION"
)

// judge compares one metric's two sides.  worse is b's change in the
// bad direction as a share of a; spread is the wider of the two sides'
// interquartile window spreads.
func judge(m contractMetric, a, b summary) (worse, spread float64, v verdict) {
	worse = ratio(b.Value-a.Value, a.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	spread = max(a.spread(), b.spread())
	switch {
	case m.Name == "fail_ratio":
		if b.Value > a.Value+failRatioSlack {
			return worse, spread, verdictRegression
		}
		return worse, spread, verdictOK
	case m.Name == "max_rate_ok":
		if b.Value < a.Value {
			return worse, spread, verdictRegression
		}
		return worse, spread, verdictOK
	case worse > m.Bound && worse > spread:
		return worse, spread, verdictRegression
	case spread > m.Bound:
		return worse, spread, verdictUnresolved
	}
	return worse, spread, verdictOK
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Traced {
		return nil, fmt.Errorf("%s is a traced run; end-to-end numbers come from untraced runs only", path)
	}
	return &r, nil
}

// compareFiles prints the comparison and returns the exit status: 1 on
// any regression (or unreadable input), else 0.
func compareFiles(root, aPath, bPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadContract(root)
	if err != nil {
		return fail(err)
	}
	a, err := loadReport(aPath)
	if err != nil {
		return fail(err)
	}
	b, err := loadReport(bPath)
	if err != nil {
		return fail(err)
	}
	metrics := append([]contractMetric(nil), spec.EndToEnd...)
	metrics = append(metrics,
		contractMetric{Name: "max_rate_ok", Unit: "req/s", Better: "higher"},
		contractMetric{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: failRatioSlack})

	fmt.Fprintf(stdout, "a: %s  commit %s  seed %d  %gs/workload\nb: %s  commit %s  seed %d  %gs/workload\n\n",
		aPath, a.Env.Commit, a.Env.Seed, a.Seconds, bPath, b.Env.Commit, b.Env.Seed, b.Seconds)
	fmt.Fprintf(stdout, "%-14s %-15s %-6s %34s %34s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "a value [q1, q3]", "b value [q1, q3]", "worse", "bound", "spread", "verdict")
	counts := map[verdict]int{}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range metrics {
			sa, oka := ra.EndToEnd[m.Name]
			sb, okb := rb.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			worse, spread, v := judge(m, sa, sb)
			counts[v]++
			cell := func(s summary) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Value, s.Q1, s.Q3) }
			fmt.Fprintf(stdout, "%-14s %-15s %-6s %34s %34s %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.name, m.Name, m.Unit, cell(sa), cell(sb), 100*worse, 100*m.Bound, 100*spread, v)
		}
	}
	fmt.Fprintf(stdout, "\n%d ok, %d unresolved (window spread wider than the bound), %d regressions\n",
		counts[verdictOK], counts[verdictUnresolved], counts[verdictRegression])
	if counts[verdictRegression] > 0 {
		return 1
	}
	return 0
}
