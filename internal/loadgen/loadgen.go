// Package loadgen drives the serving layer (internal/server) with concurrent
// HTTP clients and reports throughput and latency percentiles.  It lives
// outside internal/harness because it exercises the public ntadoc API end to
// end (harness is imported by the root package's benchmarks, so it cannot
// import ntadoc back).
package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/harness"
	"github.com/text-analytics/ntadoc/internal/server"
)

// Options parameterizes a serving-layer load run.
type Options struct {
	Workers  int // concurrent clients (default 8)
	Requests int // total requests across all workers (default 64 per worker)
	Shards   int // archive shards (default 2)
	Replicas int // follower devices per shard (default 0)
	Sessions int // server query-session pool size (0 = server default)
	// CacheEntries is the server's result-cache capacity (0 = server
	// default, negative disables — every request then traverses or
	// coalesces).
	CacheEntries int
	// Mix is the request mix, cycled per request (default DefaultLoadMix).
	Mix []ntadoc.BatchSpec
}

// DefaultLoadMix is the six tasks individually plus the fully fused batch.
func DefaultMix() []ntadoc.BatchSpec {
	tasks := []ntadoc.Task{
		ntadoc.TaskWordCount, ntadoc.TaskSort, ntadoc.TaskTermVectors,
		ntadoc.TaskInvertedIndex, ntadoc.TaskSequenceCount, ntadoc.TaskRankedInvertedIndex,
	}
	mix := make([]ntadoc.BatchSpec, 0, len(tasks)+1)
	for _, t := range tasks {
		mix = append(mix, ntadoc.NewBatchSpec([]ntadoc.Task{t}, 0))
	}
	mix = append(mix, ntadoc.NewBatchSpec(tasks, 0))
	return mix
}

// Result is one measured load point.  Latencies are wall-clock per
// request (client-observed, over real HTTP on the loopback), so unlike the
// modeled figures they vary with the machine.
type Result struct {
	Dataset    string
	Workers    int
	Requests   int
	Errors     int
	Wall       time.Duration
	Throughput float64 // requests per second of wall time

	P50, P95, P99, Max time.Duration

	CacheHitRate  float64 // fraction of OK responses served from the cache
	CoalescedRate float64 // fraction sharing a concurrent identical flight
}

// Run builds a sharded archive from the spec's corpus, stands a
// serving layer up over it (real HTTP on the loopback), and drives it with
// Workers concurrent clients issuing Requests requests from the mix.
func Run(spec datagen.Spec, opts Options) (Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Requests <= 0 {
		opts.Requests = 64 * opts.Workers
	}
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	if len(opts.Mix) == 0 {
		opts.Mix = DefaultMix()
	}

	c, err := harness.GetCorpus(spec)
	if err != nil {
		return Result{}, err
	}
	// Rebuild the public-API dictionary: interning the corpus words in ID
	// order reproduces the same dense IDs the token files use.
	dct := ntadoc.NewDictionary()
	for _, w := range c.Dict.Words() {
		dct.Intern(w)
	}
	names := make([]string, len(c.Files))
	for i := range names {
		names[i] = fmt.Sprintf("doc%03d", i)
	}
	a, err := ntadoc.CompressTokensSharded(c.Files, names, dct, opts.Shards)
	if err != nil {
		return Result{}, err
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{Replicas: opts.Replicas})
	if err != nil {
		return Result{}, err
	}
	defer eng.Close()
	srv, err := server.New(server.Config{
		Engine:       eng,
		Sessions:     opts.Sessions,
		QueueDepth:   opts.Workers, // admit every worker; loadgen measures latency, not shedding
		CacheEntries: opts.CacheEntries,
	})
	if err != nil {
		return Result{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-shape one URL per mix entry (the canonical signature is computed
	// server-side from the same spec).
	urls := make([]string, len(opts.Mix))
	for i, m := range opts.Mix {
		tasks := m.Tasks()
		ns := make([]string, len(tasks))
		for j, t := range tasks {
			ns[j] = t.String()
		}
		urls[i] = ts.URL + "/v1/query?task=" + strings.Join(ns, ",")
		if k := m.TermVectorK(); k > 0 {
			urls[i] += fmt.Sprintf("&k=%d", k)
		}
	}

	latencies := make([]time.Duration, opts.Requests)
	var next, errs, oks, cached, coalesced atomic.Int64
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.Workers}}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				t0 := time.Now()
				resp, err := client.Get(urls[i%len(urls)])
				if err != nil {
					latencies[i] = time.Since(t0)
					errs.Add(1)
					continue
				}
				// The outcome comes from the header and the body is drained
				// undecoded, so client-side JSON work stays out of the
				// measured latencies.
				_, readErr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latencies[i] = time.Since(t0)
				if resp.StatusCode != http.StatusOK || readErr != nil {
					errs.Add(1)
					continue
				}
				oks.Add(1)
				switch resp.Header.Get(server.CacheHeader) {
				case "hit":
					cached.Add(1)
				case "coalesced":
					coalesced.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res := Result{
		Dataset:    spec.Name,
		Workers:    opts.Workers,
		Requests:   opts.Requests,
		Errors:     int(errs.Load()),
		Wall:       wall,
		Throughput: float64(opts.Requests) / wall.Seconds(),
		P50:        percentile(latencies, 50),
		P95:        percentile(latencies, 95),
		P99:        percentile(latencies, 99),
		Max:        latencies[len(latencies)-1],
	}
	if ok := oks.Load(); ok > 0 {
		res.CacheHitRate = float64(cached.Load()) / float64(ok)
		res.CoalescedRate = float64(coalesced.Load()) / float64(ok)
	}
	return res, nil
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
