package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place.  It refuses, with ok false, when fewer
// than minBeyond samples lie beyond the percentile's rank; the median of a
// sample is always reportable once there are 2*minBeyond samples.
func percentile(samples []time.Duration, p float64) (v time.Duration, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(n, p)
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rank-1], true
}

// nearestRank is the 1-based rank of the p-th percentile among n samples:
// ceil(p/100 * n), clamped to [1, n].
func nearestRank(n int, p float64) int {
	rank := int(p * float64(n) / 100)
	if float64(rank)*100 < p*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// median is the nearest-rank median of xs (zero for none), leaving xs
// unsorted.  It reports figures that are medians of a few repetitions, which
// carry no tail claim and so need no samples beyond them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), 50)-1]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// promSample is one parsed line of Prometheus text exposition.
type promSample struct {
	name   string
	labels string // the raw label set without braces, "" when absent
	value  float64
}

// promMetrics maps "name" or "name{labels}" to a sample's value.
type promMetrics map[string]float64

// parseMetrics reads the daemon's /metrics text: comment lines are skipped,
// every other line must be `name[{labels}] value`.
func parseMetrics(r io.Reader) (promMetrics, error) {
	out := promMetrics{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parsePromLine(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		key := s.name
		if s.labels != "" {
			key += "{" + s.labels + "}"
		}
		out[key] = s.value
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

func parsePromLine(text string) (promSample, error) {
	var s promSample
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 {
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return s, fmt.Errorf("unterminated label set in %q", text)
		}
		s.name, s.labels, rest = text[:i], text[i+1:j], text[j+1:]
	} else {
		sp := strings.IndexAny(text, " \t")
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", text)
		}
		s.name, rest = text[:sp], text[sp:]
	}
	fields := strings.Fields(rest)
	if s.name == "" || len(fields) == 0 {
		return s, fmt.Errorf("malformed sample %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", text, err)
	}
	s.value = v
	return s, nil
}

// delta is after[key] - before[key]; a key missing from either side is a
// daemon that no longer exports the counter, which the caller must see.
func (m promMetrics) delta(before promMetrics, key string) (float64, error) {
	a, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("metric %s missing", key)
	}
	b, ok := before[key]
	if !ok {
		return 0, fmt.Errorf("metric %s missing", key)
	}
	return a - b, nil
}

// span is one timed call into a layer, recorded by the traced replay.
type span struct {
	name       string
	start, end time.Duration // offsets from the replay's start
	parent     int           // index of the causing span, -1 for a root
	req        int           // request id shared by a request's spans
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.  Overlapping children are merged
// first, so concurrent children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := time.Duration(0)
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.a <= cur.b:
				if v.b > cur.b {
					cur.b = v.b
				}
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		out[i] = s.end - s.start - covered
	}
	return out
}
