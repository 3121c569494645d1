package main

import (
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	xs := make([]time.Duration, n)
	for i := range xs {
		// Reverse order, so percentile must sort.
		xs[i] = time.Duration(n-i) * time.Millisecond
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{20, 50, 10 * time.Millisecond},
		{200, 95, 190 * time.Millisecond},
		{1000, 99, 990 * time.Millisecond},
		{21, 50, 11 * time.Millisecond}, // ceil(10.5) = 11
	} {
		got, ok := percentile(durations(tc.n), tc.p)
		if !ok || got != tc.want {
			t.Errorf("percentile(%d samples, p%v) = %v, %v; want %v, true", tc.n, tc.p, got, ok, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{199, 95, false}, // rank 190: only 9 samples beyond
		{200, 95, true},  // rank 190: 10 beyond
		{999, 99, false},
		{1000, 99, true},
		{19, 50, false},
		{20, 50, true},
		{0, 50, false},
	} {
		if _, ok := percentile(durations(tc.n), tc.p); ok != tc.ok {
			t.Errorf("percentile(%d samples, p%v) ok = %v, want %v", tc.n, tc.p, ok, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

const sampleMetrics = `# HELP ntadoc_requests_total Served requests by outcome.
# TYPE ntadoc_requests_total counter
ntadoc_requests_total{outcome="ok"} 12
ntadoc_requests_total{outcome="shed"} 0
ntadoc_cache_hits_total 7

ntadoc_device{counter="modeled_nanos"} 1.5e+06
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(sampleMetrics))
	if err != nil {
		t.Fatal(err)
	}
	want := promMetrics{
		`ntadoc_requests_total{outcome="ok"}`:    12,
		`ntadoc_requests_total{outcome="shed"}`:  0,
		"ntadoc_cache_hits_total":                7,
		`ntadoc_device{counter="modeled_nanos"}`: 1.5e6,
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}

	before := promMetrics{"ntadoc_cache_hits_total": 2}
	if d, err := m.delta(before, "ntadoc_cache_hits_total"); err != nil || d != 5 {
		t.Errorf("delta = %v, %v; want 5, nil", d, err)
	}
	if _, err := m.delta(before, `ntadoc_requests_total{outcome="ok"}`); err == nil {
		t.Error("delta of a counter missing before the window did not fail")
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"ntadoc_cache_hits_total",
		"ntadoc_cache_hits_total seven",
		`ntadoc_device{counter="reads" 3`,
		"{} 3",
	} {
		if _, err := parseMetrics(strings.NewReader(text)); err == nil {
			t.Errorf("parseMetrics(%q) did not fail", text)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "query", start: msd(0), end: msd(100), parent: -1},
		{name: "serve", start: msd(10), end: msd(40), parent: 0},
		{name: "runspec", start: msd(30), end: msd(60), parent: 0}, // overlaps serve
		{name: "encode", start: msd(80), end: msd(90), parent: 0},
		{name: "inner", start: msd(15), end: msd(20), parent: 1},
		{name: "late", start: msd(95), end: msd(120), parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{
		msd(100 - 50 - 10 - 5), // covered: [10,60], [80,90], [95,100]
		msd(30 - 5),
		msd(30),
		msd(10),
		msd(5),
		msd(25),
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}
