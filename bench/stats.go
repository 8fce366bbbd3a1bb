package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summary is a value reported as the median of its windows, with the
// window quartiles and the raw window values kept beside it.
type summary struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Windows []float64 `json:"windows"`
}

// summarize reports the median and quartiles of the per-window values.
func summarize(unit string, windows []float64) summary {
	s := append([]float64(nil), windows...)
	sort.Float64s(s)
	return summary{
		Value:   quantile(s, 0.5),
		Unit:    unit,
		Q1:      quantile(s, 0.25),
		Q3:      quantile(s, 0.75),
		Windows: windows,
	}
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure -compare weighs a difference against.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// sortedMs converts a nanosecond sample to ascending milliseconds, ready
// for quantile.
func sortedMs(ns []int64) []float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return ms
}
