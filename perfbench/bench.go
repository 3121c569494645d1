package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// bench is one invocation's state.
type bench struct {
	w       workload
	seed    int64
	c       corpus
	bin     string
	workdir string
	window  time.Duration
}

// streamDocs is the size of the ingest feed: feedRate batches per second of
// the window.
func streamDocs(w workload, seconds int) int {
	return w.feedRate * appendBatch * seconds
}

// setupReps is how many times an untraced run builds the archive and starts
// the daemon; setup_s is their median.
const setupReps = 5

// ingestCap returns the per-shard append-log capacity: room for the whole
// stream on one shard, with slack for record framing and novel words.
func (b *bench) ingestCap() int64 {
	n := 0
	for _, d := range b.c.stream {
		n += len(d.Text)
	}
	return int64(4*n + 1<<20)
}

// daemonFlags are the flags the workload needs beyond the daemon defaults.
func (b *bench) daemonFlags() []string {
	if len(b.c.stream) == 0 {
		return []string{}
	}
	return []string{"-replicas", "1", "-ingest-cap", strconv.FormatInt(b.ingestCap(), 10)}
}

func (b *bench) archivePath() string {
	return filepath.Join(b.workdir, fmt.Sprintf("%s-seed%d.tdc", b.w.name, b.seed))
}

// setup compresses the corpus, writes the archive, and starts the daemon,
// returning it with the elapsed time up to its first healthy /healthz.
func (b *bench) setup() (*daemon, time.Duration, error) {
	t0 := time.Now()
	a, err := b.c.compress(b.w.shards)
	if err != nil {
		return nil, 0, fmt.Errorf("compressing: %w", err)
	}
	if err := writeArchive(a, b.archivePath()); err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := startDaemon(ctx, b.bin, b.archivePath(), b.daemonFlags())
	if err != nil {
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// serveRun is what a daemon session measured: the window, the /metrics
// deltas around warm-up plus window, and the correctness check.
type serveRun struct {
	win        windowResult
	before     promMetrics
	after      promMetrics
	peakRSS    float64
	clientCPU  float64
	checked    int
	mismatches []string
}

// serve warms the daemon with one pass over the default mix, runs the timed
// window, scrapes the daemon, and checks every served result.
func (b *bench) serve(d *daemon) (*serveRun, error) {
	r := &serveRun{}
	var err error
	if r.before, err = d.metrics(); err != nil {
		return nil, err
	}
	for _, spec := range defaultMix() {
		status, err := get(d.client, d.base+queryPath(spec))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", spec.Signature(), status)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	cpu0 := cpuSeconds()
	r.win = runWindow(d, b.w, b.seed, b.c, b.window)
	r.clientCPU = cpuSeconds() - cpu0
	if r.win.firstError != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", r.win.firstError)
	}
	if r.after, err = d.metrics(); err != nil {
		return nil, err
	}
	if r.peakRSS, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if len(b.c.stream) > 0 {
		r.checked, r.mismatches, err = checkIngest(d, b.c, b.w.shards, r.win.acked)
		return r, err
	}
	ref, err := openReference(b.archivePath())
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for _, spec := range defaultMix() {
		r.win.served[spec.Signature()] = spec
	}
	r.checked, r.mismatches, err = checkServed(d, ref, r.win.served)
	return r, err
}

// session sets the daemon up reps times, stopping all but the last, then
// serves the window on the last and stops it.  It returns the session and
// the set-up times.
func (b *bench) session(reps int) (*serveRun, []float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		var took time.Duration
		var err error
		if d, took, err = b.setup(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i < reps-1 {
			if err := d.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping daemon: %w", err)
			}
		}
	}
	r, err := b.serve(d)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping daemon: %w", stopErr)
	}
	return r, setups, err
}

// untraced is the end-to-end run: setupReps set-ups, the window on the
// last daemon, and the end-to-end metrics.
func (b *bench) untraced(rep *report) error {
	r, setups, err := b.session(setupReps)
	if err != nil {
		return err
	}
	add := func(dst map[string]metric, name string, v float64, unit string, n int) {
		dst[name] = metric{Value: v, Unit: unit, Samples: n}
	}
	m := rep.Metrics
	add(m, "setup_s", median(setups), "s", len(setups))

	q := r.win.queries
	okQueries := len(q.lat)
	add(m, "query_rps", float64(okQueries)/r.win.wall.Seconds(), "1/s", okQueries)
	for _, p := range []struct {
		name string
		pct  float64
		gate bool
	}{{"query_p50_ms", 50, true}, {"query_p95_ms", 95, true}, {"query_p99_ms", 99, false}} {
		v, ok := percentile(q.lat, p.pct)
		switch {
		case ok && p.gate:
			add(m, p.name, ms(v), "ms", okQueries)
		case ok:
			add(rep.Extra, p.name, ms(v), "ms", okQueries)
		case p.gate:
			return fmt.Errorf("%s: only %d queries, too few samples beyond the percentile", p.name, okQueries)
		}
	}

	modeled, n, err := modeledPerQuery(r.before, r.after)
	if err != nil {
		return err
	}
	add(rep.Extra, "modeled_ms_per_query", modeled, "ms", n)
	add(m, "peak_rss_mb", r.peakRSS, "MB", 0)

	rep.Attempted = q.attempted + r.win.appends.attempted + r.checked
	rep.Failed = q.failed + r.win.appends.failed + len(r.mismatches)
	rep.Mismatch = r.mismatches
	errRate := float64(rep.Failed) / float64(rep.Attempted)
	add(m, "ok_ratio", 1-errRate, "ratio", rep.Attempted)
	add(rep.Extra, "error_rate", errRate, "ratio", rep.Attempted)
	add(rep.Extra, "client_cpu_s", r.clientCPU, "s", 0)
	add(rep.Extra, "window_s", r.win.wall.Seconds(), "s", 0)

	if len(b.c.stream) > 0 {
		a := r.win.appends
		add(rep.Extra, "append_docs_per_s", float64(r.win.ackedDocs)/r.win.wall.Seconds(), "1/s", r.win.ackedDocs)
		add(rep.Extra, "append_retry_wait_s", r.win.retryWait.Seconds(), "s", r.win.retries)
		for _, p := range []struct {
			name string
			pct  float64
		}{{"append_p50_ms", 50}, {"append_p90_ms", 90}, {"append_p95_ms", 95}} {
			if v, ok := percentile(a.lat, p.pct); ok {
				add(rep.Extra, p.name, ms(v), "ms", len(a.lat))
			}
		}
	}
	return nil
}

// modeledPerQuery is the daemon's modeled device+CPU time per query that
// traversed (cache misses not coalesced) between two scrapes, warm-up
// included: the paper's clock.  It is deterministic where the traffic is,
// so it is reported, not gated.
func modeledPerQuery(before, after promMetrics) (ms float64, traversed int, err error) {
	misses, err := after.delta(before, "ntadoc_cache_misses_total")
	if err != nil {
		return 0, 0, err
	}
	shared, err := after.delta(before, "ntadoc_coalesced_total")
	if err != nil {
		return 0, 0, err
	}
	nanos, err := after.delta(before, `ntadoc_device{counter="modeled_nanos"}`)
	if err != nil {
		return 0, 0, err
	}
	if misses-shared <= 0 {
		return 0, 0, fmt.Errorf("no query traversed the corpus")
	}
	return nanos / 1e6 / (misses - shared), int(misses - shared), nil
}
