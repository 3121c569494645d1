package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

// clients is the number of closed-loop clients: one per CPU of the
// two-CPU machine the benchmark was sized on.  Every client of this system
// in the repository (ntadoc analyze -server, ntadoc append, loadgen) waits
// for each reply before sending the next request, so the load is a closed
// loop.
const clients = 2

// appendRetryWait and maxAppendAttempts mirror `ntadoc append`: a 503 from
// a compaction swap is retried after 50ms.
const (
	appendRetryWait   = 50 * time.Millisecond
	maxAppendAttempts = 200
)

// opLog is what one kind of operation did during the timed window.
type opLog struct {
	attempted, failed int
	lat               []time.Duration // one per successful operation
}

func (o *opLog) merge(p opLog) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.lat = append(o.lat, p.lat...)
}

// windowResult is the outcome of one timed window.
type windowResult struct {
	wall    time.Duration
	queries opLog
	appends opLog // one entry per batch, retries included in its latency
	// served holds every distinct batch answered 200, for the correctness
	// check after the window.
	served map[string]ntadoc.BatchSpec
	// acked is the append batches the daemon acknowledged, in order.
	acked      [][]ntadoc.Document
	ackedDocs  int
	retries    int           // 503 answers that were retried
	retryWait  time.Duration // time spent on retried attempts and their waits
	firstError string
}

// runWindow drives the daemon with the closed-loop clients for the window.
// For ingest, the append feed runs beside them: one batch falls due every
// 1/feedRate seconds, and each is timed from when it fell due.
func runWindow(d *daemon, w workload, seed int64, c corpus, dur time.Duration) windowResult {
	res := windowResult{served: map[string]ntadoc.BatchSpec{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	if len(c.stream) > 0 {
		bodies := appendBodies(c.stream)
		interval := time.Second / time.Duration(w.feedRate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendFeed(d, bodies, c.stream, start, interval, &res, &mu)
		}()
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, served, errMsg := queryLoop(d, newQuerySequence(w, seed, i), deadline)
			mu.Lock()
			defer mu.Unlock()
			res.queries.merge(q)
			for k, v := range served {
				res.served[k] = v
			}
			if res.firstError == "" {
				res.firstError = errMsg
			}
		}(i)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// queryLoop sends one request at a time until the deadline passes, reading
// and discarding each body.
func queryLoop(d *daemon, seq *querySequence, deadline time.Time) (opLog, map[string]ntadoc.BatchSpec, string) {
	var log opLog
	served := map[string]ntadoc.BatchSpec{}
	errMsg := ""
	for time.Now().Before(deadline) {
		spec := seq.next()
		log.attempted++
		t0 := time.Now()
		status, err := get(d.client, d.base+queryPath(spec))
		lat := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("query %s: status %d", spec.Signature(), status)
		}
		if err != nil {
			log.failed++
			if errMsg == "" {
				errMsg = err.Error()
			}
			continue
		}
		log.lat = append(log.lat, lat)
		served[spec.Signature()] = spec
	}
	return log, served, errMsg
}

// get issues one GET and discards the body.
func get(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// appendBodies pre-encodes the stream's /v1/append requests, so the timed
// loop does no client-side encoding.
func appendBodies(stream []ntadoc.Document) [][]byte {
	var out [][]byte
	for i := 0; i < len(stream); i += appendBatch {
		end := min(i+appendBatch, len(stream))
		req := server.AppendRequest{}
		for _, doc := range stream[i:end] {
			req.Documents = append(req.Documents, server.AppendDocument{Name: doc.Name, Text: doc.Text})
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // strings only: cannot fail
		}
		out = append(out, b)
	}
	return out
}

// appendFeed posts every batch in order, each no earlier than it falls due,
// retrying 503s like `ntadoc append`.  A batch's latency runs from when it
// fell due, so a slow append also charges the wait it imposes on the
// batches behind it.  A batch that fails otherwise is counted and skipped.
func appendFeed(d *daemon, bodies [][]byte, stream []ntadoc.Document, start time.Time, interval time.Duration, res *windowResult, mu *sync.Mutex) {
	var log opLog
	for bi, body := range bodies {
		due := start.Add(time.Duration(bi) * interval)
		time.Sleep(time.Until(due))
		log.attempted++
		var err error
		for attempt := 0; ; attempt++ {
			ta := time.Now()
			var status int
			status, err = post(d.client, d.base+"/v1/append", body)
			if err == nil && status == http.StatusServiceUnavailable && attempt+1 < maxAppendAttempts {
				time.Sleep(appendRetryWait)
				mu.Lock()
				res.retries++
				res.retryWait += time.Since(ta)
				mu.Unlock()
				continue
			}
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("append batch %d: status %d", bi, status)
			}
			break
		}
		if err != nil {
			log.failed++
			mu.Lock()
			if res.firstError == "" {
				res.firstError = err.Error()
			}
			mu.Unlock()
			continue
		}
		log.lat = append(log.lat, time.Since(due))
		end := min((bi+1)*appendBatch, len(stream))
		mu.Lock()
		res.acked = append(res.acked, stream[bi*appendBatch:end])
		res.ackedDocs += end - bi*appendBatch
		mu.Unlock()
	}
	mu.Lock()
	res.appends.merge(log)
	mu.Unlock()
}

func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}
