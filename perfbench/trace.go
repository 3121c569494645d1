package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

// tracer records spans around the calls into each layer, in memory; they
// are written out when the run ends.
type tracer struct {
	start time.Time
	spans []span
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.start), parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].end = time.Since(t.start)
	return t.spans[i].end - t.spans[i].start
}

// spanCost is the measured cost of recording one span on a fresh tracer.
// Replaying the workload a second time with timers off does not measure
// the overhead: two identical replays differ by tens of percent on a
// shared machine, while the tracer adds well under one.
func spanCost() time.Duration {
	const n = 100_000
	t := &tracer{start: time.Now()}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("span", -1, i))
	}
	return time.Since(t0) / n
}

// replayStats is what one traced replay measured.
type replayStats struct {
	setup      map[string][]float64 // stage -> seconds per repetition
	archiveLen int64

	hit, runspec, encode, missSelf        []time.Duration
	queries, traversed                    int
	responseBytes                         int64
	reads, granuleReads, devHits, devMiss int64

	serverAppend, engineAppend          []time.Duration
	batches, docBytes                   int64
	flushes, drains, bytesWritten       int64
	deltaSymbolsPeak, logBytes, appDocs int64

	taskInit, taskTrav map[string]float64 // modeled ms per single task
	fusedModeled       float64
	deviceBytes        int64
	dramBytes          int64

	mismatches []string
	wall       time.Duration
}

// engineOptions mirrors the daemon's engine for the workload's flags.
func (b *bench) engineOptions() ntadoc.Options {
	if len(b.c.stream) == 0 {
		return ntadoc.Options{}
	}
	return ntadoc.Options{Replicas: 1, IngestCapacity: b.ingestCap()}
}

// compactionDocs is the daemon's default compaction threshold (documents in
// one shard's live delta).  The replay compacts synchronously once the
// summed delta passes it times the shard count, so its device counts stay
// deterministic where the daemon's background worker is timing-dependent.
const compactionDocs = 64

// replay runs the workload's seeded operation sequence in-process and
// serially: set-up through the public API, then replayQueries queries
// through the server's handler (alternating the two clients' sequences),
// with the ingest feed's batches interleaved evenly between them.  Every
// miss is re-run on a reference engine built from the same archive, which
// times the engine and encode layers apart and checks the served bytes.
func (b *bench) replay(t *tracer) (*replayStats, error) {
	st := &replayStats{setup: map[string][]float64{}, taskInit: map[string]float64{}, taskTrav: map[string]float64{}}
	t.start = time.Now()
	opts := b.engineOptions()
	path := filepath.Join(b.workdir, fmt.Sprintf("%s-seed%d-replay.tdc", b.w.name, b.seed))

	var eng *ntadoc.Engine
	var srv *server.Server
	stage := func(name string, parent int, f func() error) error {
		s := t.begin(name, parent, -1)
		t0 := time.Now()
		err := f()
		t.end(s)
		st.setup[name] = append(st.setup[name], time.Since(t0).Seconds())
		return err
	}
	for rep := 0; rep < setupReps; rep++ {
		if eng != nil {
			eng.Close()
		}
		root := t.begin("setup", -1, -1)
		var a *ntadoc.Archive
		err := stage("setup.compress", root, func() (err error) { a, err = b.c.compress(b.w.shards); return })
		if err == nil {
			err = stage("setup.write", root, func() error { return writeArchive(a, path) })
		}
		if err == nil {
			err = stage("setup.read_archive", root, func() (err error) { a, err = readArchive(path); return })
		}
		if err == nil {
			err = stage("setup.engine", root, func() (err error) { eng, err = ntadoc.NewEngine(a, opts); return })
		}
		if err == nil {
			err = stage("setup.server", root, func() (err error) { srv, err = server.New(server.Config{Engine: eng}); return })
		}
		t.end(root)
		if err != nil {
			return nil, err
		}
	}
	defer eng.Close()
	if fi, err := os.Stat(path); err == nil {
		st.archiveLen = fi.Size()
	}
	h := srv.Handler()

	// The reference engine mirrors every append, so it serves the same
	// corpus as the server engine at each step.
	refArchive, err := readArchive(path)
	if err != nil {
		return nil, err
	}
	ref, err := ntadoc.NewEngine(refArchive, opts)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	refSess, err := ref.NewSession()
	if err != nil {
		return nil, err
	}

	seqs := []*querySequence{newQuerySequence(b.w, b.seed, 0), newQuerySequence(b.w, b.seed, 1)}
	bodies := appendBodies(b.c.stream)
	nq := b.w.replayQueries
	nextBatch := 0
	for i := 0; i < nq; i++ {
		// Spread the feed's batches evenly over the query sequence.
		for nextBatch < len(bodies) && nextBatch*nq <= i*len(bodies) {
			if err := b.replayAppend(t, st, h, eng, ref, bodies, nextBatch, i); err != nil {
				return nil, err
			}
			nextBatch++
		}
		if err := b.replayQuery(t, st, h, eng, ref, refSess, seqs[i%2].next(), i); err != nil {
			return nil, err
		}
	}
	for ; nextBatch < len(bodies); nextBatch++ {
		if err := b.replayAppend(t, st, h, eng, ref, bodies, nextBatch, nq); err != nil {
			return nil, err
		}
	}

	// Modeled phase split per task (Table II) and for the fused batch, on
	// the reference engine's task path.
	for _, task := range allTasks {
		s := t.begin("core.task."+task.String(), -1, -1)
		_, err := ref.RunSpec(ntadoc.NewBatchSpec([]ntadoc.Task{task}, 0))
		t.end(s)
		if err != nil {
			return nil, err
		}
		init, trav := ref.PhaseTimes()
		st.taskInit[task.String()] = ms(init)
		st.taskTrav[task.String()] = ms(trav)
	}
	s := t.begin("core.fused", -1, -1)
	_, err = ref.RunSpec(ntadoc.NewBatchSpec(allTasks, 0))
	t.end(s)
	if err != nil {
		return nil, err
	}
	init, trav := ref.PhaseTimes()
	st.fusedModeled = ms(init + trav)
	st.deviceBytes, st.dramBytes = eng.MemoryFootprint()
	ing := eng.IngestStats()
	st.logBytes, st.appDocs = ing.LogBytes, int64(ing.AppendedDocs)
	st.wall = time.Since(t.start)
	return st, nil
}

func writeArchive(a *ntadoc.Archive, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := a.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("writing archive: %w", err)
	}
	return f.Close()
}

func readArchive(path string) (*ntadoc.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := ntadoc.ReadArchive(f)
	if err != nil {
		return nil, fmt.Errorf("reading archive: %w", err)
	}
	return a, nil
}

// replayQuery serves one query through the handler and, on a miss, re-runs
// it on the reference engine: RunSpec and EncodeResult timed apart, and the
// bytes compared with what the handler served.
func (b *bench) replayQuery(t *tracer, st *replayStats, h http.Handler, eng, ref *ntadoc.Engine, refSess *ntadoc.QuerySession, spec ntadoc.BatchSpec, req int) error {
	root := t.begin("query", -1, req)
	dc0 := eng.DeviceCounters()
	rec := httptest.NewRecorder()
	s := t.begin("server.serve", root, req)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryPath(spec), nil))
	serve := t.end(s)
	dc1 := eng.DeviceCounters()
	st.queries++
	st.responseBytes += int64(rec.Body.Len())
	if rec.Code != http.StatusOK {
		t.end(root)
		return fmt.Errorf("replay query %s: status %d: %s", spec.Signature(), rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var env server.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.end(root)
		return fmt.Errorf("replay query %s: %w", spec.Signature(), err)
	}
	if env.Cached {
		st.hit = append(st.hit, serve)
		st.runspec = append(st.runspec, 0)
		t.end(root)
		return nil
	}
	st.traversed++
	st.reads += dc1.Reads - dc0.Reads
	st.granuleReads += dc1.GranuleReads - dc0.GranuleReads
	st.devHits += dc1.CacheHits - dc0.CacheHits
	st.devMiss += dc1.CacheMisses - dc0.CacheMisses

	s = t.begin("ntadoc.runspec", root, req)
	res, err := refSess.RunSpec(context.Background(), spec)
	run := t.end(s)
	if err != nil {
		t.end(root)
		return fmt.Errorf("reference %s: %w", spec.Signature(), err)
	}
	s = t.begin("server.encode", root, req)
	want, err := server.EncodeResult(res, ref.DocumentNames())
	enc := t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	st.runspec = append(st.runspec, run)
	st.encode = append(st.encode, enc)
	st.missSelf = append(st.missSelf, serve-run-enc)
	if !bytes.Equal(env.Result, want) {
		st.mismatches = append(st.mismatches, fmt.Sprintf("replay query %d %s", req, spec.Signature()))
	}
	return nil
}

// replayAppend posts batch bi through the handler, mirrors it onto the
// reference engine with Engine.Append, and compacts both engines when the
// delta passes the default threshold.
func (b *bench) replayAppend(t *tracer, st *replayStats, h http.Handler, eng, ref *ntadoc.Engine, bodies [][]byte, bi, req int) error {
	docs := b.c.stream[bi*appendBatch : min((bi+1)*appendBatch, len(b.c.stream))]
	root := t.begin("append", -1, req)
	dc0 := eng.DeviceCounters()
	rec := httptest.NewRecorder()
	s := t.begin("server.append", root, req)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", bytes.NewReader(bodies[bi])))
	sa := t.end(s)
	dc1 := eng.DeviceCounters()
	if rec.Code != http.StatusOK {
		t.end(root)
		return fmt.Errorf("replay append %d: status %d: %s", bi, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	s = t.begin("ingest.append", root, req)
	err := ref.Append(docs)
	ea := t.end(s)
	if err != nil {
		t.end(root)
		return fmt.Errorf("reference append %d: %w", bi, err)
	}
	st.batches++
	st.serverAppend = append(st.serverAppend, sa)
	st.engineAppend = append(st.engineAppend, ea)
	st.flushes += dc1.Flushes - dc0.Flushes
	st.drains += dc1.Drains - dc0.Drains
	st.bytesWritten += dc1.BytesWritten - dc0.BytesWritten
	for _, d := range docs {
		st.docBytes += int64(len(d.Text))
	}
	ing := eng.IngestStats()
	st.deltaSymbolsPeak = max(st.deltaSymbolsPeak, ing.DeltaSymbols)
	if ing.DeltaDocs > compactionDocs*b.w.shards {
		s := t.begin("ingest.compact", root, req)
		err := eng.Compact()
		if err == nil {
			err = ref.Compact()
		}
		t.end(s)
		if err != nil {
			t.end(root)
			return fmt.Errorf("compacting: %w", err)
		}
	}
	t.end(root)
	return nil
}

// traced runs the daemon session once (its server-side ratios are layer
// metrics too), then the traced replay, and reports the per-layer metrics.
func (b *bench) traced(rep *report) error {
	r, _, err := b.session(1)
	if err != nil {
		return err
	}

	tr := &tracer{}
	st, err := b.replay(tr)
	if err != nil {
		return err
	}
	if err := writeSpans(tr, filepath.Join(b.workdir, "results",
		fmt.Sprintf("%s-seed%d-spans.json", b.w.name, b.seed))); err != nil {
		return err
	}

	m := rep.Metrics
	add := func(name string, v float64, unit string, n int) {
		m[name] = metric{Value: v, Unit: unit, Samples: n}
	}
	pct := func(name string, xs []time.Duration, p float64) {
		v, ok := percentile(xs, p)
		if !ok {
			// Too few samples for this workload to support the figure:
			// the layer is not on its path, so it reads as zero.
			v = 0
		}
		add(name, ms(v), "ms", len(xs))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Server-side outcomes of the daemon session.
	delta := func(key string) float64 {
		v, err2 := r.after.delta(r.before, key)
		if err2 != nil && err == nil {
			err = err2
		}
		return v
	}
	hits, misses := delta("ntadoc_cache_hits_total"), delta("ntadoc_cache_misses_total")
	shed := delta(`ntadoc_requests_total{outcome="shed"}`)
	ok := delta(`ntadoc_requests_total{outcome="ok"}`)
	add("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	add("server.coalesced_ratio", ratio(delta("ntadoc_coalesced_total"), misses), "ratio", int(misses))
	add("server.shed_ratio", ratio(shed, ok+shed), "ratio", int(ok+shed))
	add("server.cache_bytes", r.after["ntadoc_cache_bytes"], "bytes", 0)
	appendsOK, appendsErr := delta(`ntadoc_appends_total{outcome="ok"}`), delta(`ntadoc_appends_total{outcome="error"}`)
	add("server.append_retry_ratio", ratio(appendsErr, appendsOK+appendsErr), "ratio", int(appendsOK+appendsErr))
	add("ingest.compactions", delta(`ntadoc_ingest{stat="compactions"}`), "count", 0)
	modeled, traversed, err2 := modeledPerQuery(r.before, r.after)
	if err2 != nil && err == nil {
		err = err2
	}
	add("server.modeled_ms_per_query", modeled, "ms", traversed)
	add("ingest.stall_ms", ratio(ms(r.win.retryWait), float64(len(r.win.acked))), "ms", len(r.win.acked))
	if err != nil {
		return err
	}

	// Replay: server layer.
	pct("server.hit_ms", st.hit, 50)
	add("server.response_bytes", ratio(float64(st.responseBytes), float64(st.queries)), "bytes", st.queries)
	pct("server.miss_self_ms", st.missSelf, 50)
	pct("server.encode_ms", st.encode, 50)
	pct("server.append_ms", st.serverAppend, 50)
	add("mem.device_bytes", float64(st.deviceBytes), "bytes", 0)
	add("mem.dram_bytes", float64(st.dramBytes), "bytes", 0)

	// ntadoc facade: RunSpec time each query caused (zero for a hit).
	pct("ntadoc.runspec_ms", st.runspec, 50)
	pct("ntadoc.runspec_p95_ms", st.runspec, 95)

	// core: modeled phase split (deterministic).
	for _, task := range allTasks {
		add("core."+task.String()+".modeled_init_ms", st.taskInit[task.String()], "ms", 1)
		add("core."+task.String()+".modeled_traversal_ms", st.taskTrav[task.String()], "ms", 1)
	}
	add("core.fused_modeled_ms", st.fusedModeled, "ms", 1)

	// nvm: device counts per traversed query and per append batch.
	tq := float64(st.traversed)
	add("nvm.reads_per_query", ratio(float64(st.reads), tq), "count", st.traversed)
	add("nvm.granule_reads_per_query", ratio(float64(st.granuleReads), tq), "count", st.traversed)
	add("nvm.device_cache_hit_ratio", ratio(float64(st.devHits), float64(st.devHits+st.devMiss)), "ratio", 0)
	nb := float64(st.batches)
	add("nvm.flushes_per_batch", ratio(float64(st.flushes), nb), "count", int(st.batches))
	add("nvm.drains_per_batch", ratio(float64(st.drains), nb), "count", int(st.batches))
	add("nvm.bytes_written_per_doc_byte", ratio(float64(st.bytesWritten), float64(st.docBytes)), "ratio", 0)

	// Ingest (core) layer.
	pct("ingest.append_ms", st.engineAppend, 50)
	add("ingest.log_bytes_per_doc", ratio(float64(st.logBytes), float64(st.appDocs)), "bytes", int(st.appDocs))
	add("ingest.delta_symbols_peak", float64(st.deltaSymbolsPeak), "count", 0)

	// Set-up stages and the archive.
	for _, name := range []string{"compress", "read_archive", "engine", "server"} {
		xs := st.setup["setup."+name]
		add("setup."+name+"_s", median(xs), "s", len(xs))
	}
	add("cfg.archive_bytes_per_token", ratio(float64(st.archiveLen), float64(b.c.tokenCount())), "bytes", 0)
	add("trace.overhead_pct", 100*float64(len(tr.spans))*float64(spanCost())/float64(st.wall), "%", len(tr.spans))

	rep.Attempted = r.win.queries.attempted + r.win.appends.attempted + r.checked + st.queries + int(st.batches)
	rep.Failed = r.win.queries.failed + r.win.appends.failed + len(r.mismatches) + len(st.mismatches)
	rep.Mismatch = append(append([]string(nil), r.mismatches...), st.mismatches...)
	return nil
}

// writeSpans writes the traced replay's spans, each with its self time.
func writeSpans(t *tracer, path string) error {
	self := selfTimes(t.spans)
	type out struct {
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		SelfUS  float64 `json:"self_us"`
		Parent  int     `json:"parent"`
		Req     int     `json:"req"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	spans := make([]out, len(t.spans))
	for i, s := range t.spans {
		spans[i] = out{s.name, us(s.start), us(s.end), us(self[i]), s.parent, s.req}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
