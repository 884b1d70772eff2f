package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is close to the maximum and too
// noisy to compare across runs.
const minBeyond = 10

// standardPermille are the percentiles the report considers, in per mille,
// from the highest down.
var standardPermille = []int{999, 990, 950, 900, 500}

// nearestRank is the 1-based nearest rank of the permille-th percentile of
// n samples: ceil(permille·n/1000), at least 1. Integer arithmetic keeps the
// rank exact (0.95·200 is 190, not 189.99…).
func nearestRank(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the permille-th percentile (nearest rank) of sorted
// samples. It refuses when fewer than minBeyond samples lie above it, so p95
// needs at least 200 samples and p50 at least 20.
func percentile(sorted []float64, permille int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%s of no samples", permilleName(permille))
	}
	r := nearestRank(n, permille)
	if beyond := n - r; beyond < minBeyond {
		return 0, fmt.Errorf("p%s of %d samples leaves %d beyond it, want at least %d",
			permilleName(permille), n, beyond, minBeyond)
	}
	return sorted[r-1], nil
}

// highestPercentile is the highest standard percentile that n samples
// support, or false when not even the median does.
func highestPercentile(n int) (int, bool) {
	for _, pm := range standardPermille {
		if n-nearestRank(n, pm) >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

func permilleName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprint(pm / 10)
	}
	return fmt.Sprintf("%d.%d", pm/10, pm%10)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median is the midpoint median (no minimum sample count); it summarizes
// small sets such as repeated set-up times.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validName reports whether s may name a metric: a letter or digit, then at
// most 63 letters, digits, '_', '.' and '-'.
func validName(s string) bool { return metricNameRE.MatchString(s) }

// Metric is one reported value, as printed in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report collects a run's metrics with the number of samples behind each.
type Report struct {
	names   []string
	metrics map[string]Metric
	samples map[string]int
	// top is the highest latency percentile the samples support, for the
	// report header ("p99=12.3ms").
	top string
}

func newReport() *Report {
	return &Report{metrics: map[string]Metric{}, samples: map[string]int{}}
}

// Set records a metric. Names and units are validated when the report is
// finalized, so one bad name fails the whole run instead of being dropped.
func (r *Report) Set(name, unit string, value float64, samples int) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = Metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

// Validate checks every name, unit and value.
func (r *Report) Validate() error {
	for _, n := range r.names {
		m := r.metrics[n]
		switch {
		case !validName(n):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		case !unitRE.MatchString(m.Unit):
			return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", n, m.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s: value %v is not a finite number", n, m.Value)
		}
	}
	return nil
}

// latencySummary sets latency_p50_ms and latency_p95_ms from per-op
// latencies in milliseconds. Fewer than 200 samples is an error: p95 would
// sit too close to the maximum.
func (r *Report) latencySummary(ms []float64) error {
	s := sortedCopy(ms)
	p50, err := percentile(s, 500)
	if err != nil {
		return err
	}
	p95, err := percentile(s, 950)
	if err != nil {
		return err
	}
	r.Set("latency_p50_ms", "ms", p50, len(s))
	r.Set("latency_p95_ms", "ms", p95, len(s))
	if pm, ok := highestPercentile(len(s)); ok {
		v, _ := percentile(s, pm) // highestPercentile only returns supported ones
		r.top = fmt.Sprintf("p%s=%.4fms", permilleName(pm), v)
	}
	return nil
}
