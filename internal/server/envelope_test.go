package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/text-analytics/ntadoc"
)

// awkwardWords need every escape encoding/json applies inside strings: the
// HTML set, the quote and backslash, and the U+2028 line separator.
var awkwardWords = []string{"<b>", "a&b", `say "hi"`, `back\slash`, "line\u2028sep"}

// TestEnvelopeGolden pins the spliced envelope to what json.Encoder writes
// for the same Response: field order, omitted false flags, the trailing
// newline, and — because the body is spliced in verbatim — that
// EncodeResult's output is already compact and escaped the way the encoder
// would re-emit it.
func TestEnvelopeGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	spec, err := ntadoc.ParseBatchSpec([]string{"wordcount", "sort", "termvector",
		"invertedindex", "seqcount", "rankedindex"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec.Signature(), "@k=3") {
		t.Fatalf("signature %q lacks @k=", spec.Signature())
	}
	res := &ntadoc.BatchResult{
		WordCount:           map[string]uint64{},
		InvertedIndex:       map[string][]string{},
		SequenceCount:       map[string]uint64{},
		RankedInvertedIndex: map[string][]ntadoc.DocCount{},
	}
	for i, w := range awkwardWords {
		res.WordCount[w] = uint64(i + 1)
		res.Sort = append(res.Sort, ntadoc.TermCount{Term: w, Count: uint64(i + 1)})
		res.TermVectors = append(res.TermVectors, []ntadoc.TermCount{{Term: w, Count: 1}})
		res.InvertedIndex[w] = []string{awkwardWords[(i+1)%len(awkwardWords)]}
		res.SequenceCount[w+" "+w] = 1
		res.RankedInvertedIndex[w] = []ntadoc.DocCount{{Doc: w, Count: 2}}
	}
	body, err := EncodeResult(res, awkwardWords)
	if err != nil {
		t.Fatal(err)
	}
	gen, sig := s.Generation(), spec.Signature()

	for _, tc := range []struct{ cached, coalesced bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&Response{
			Generation: gen, Signature: sig,
			Cached: tc.cached, Coalesced: tc.coalesced,
			Result: body,
		}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeResponse(rec, gen, sig, body, tc.cached, tc.coalesced)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("cached=%v coalesced=%v:\n got %s\nwant %s", tc.cached, tc.coalesced, rec.Body.Bytes(), want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("cached=%v coalesced=%v: Content-Length %s, want %d", tc.cached, tc.coalesced, cl, want.Len())
		}
	}
}

// cacheGauges reads ntadoc_cache_entries and ntadoc_cache_bytes from
// /metrics.
func cacheGauges(t *testing.T, h http.Handler) (entries, size int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	found := 0
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		var dst *int64
		switch name {
		case "ntadoc_cache_entries":
			dst = &entries
		case "ntadoc_cache_bytes":
			dst = &size
		default:
			continue
		}
		if _, err := fmt.Sscan(val, dst); err != nil {
			t.Fatalf("/metrics %s: %v", name, err)
		}
		found++
	}
	if found != 2 {
		t.Fatalf("/metrics: found %d of the 2 cache gauges", found)
	}
	return entries, size
}

// TestCacheScopedToGeneration checks the cache holds only the live
// generation's results: the first put after an append commits drops every
// pre-append entry, and a result computed across a commit is served but
// not stored.
func TestCacheScopedToGeneration(t *testing.T) {
	s, eng := newIngestServer(t, Config{Sessions: 2})
	h := s.Handler()
	for _, url := range []string{"/v1/query?task=wordcount", "/v1/query?task=sort", "/v1/query?task=seqcount"} {
		if _, rec := getResponse(t, h, url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
	}
	if n, _ := cacheGauges(t, h); n != 3 {
		t.Fatalf("cache entries = %d before append, want 3", n)
	}

	if _, rec := postAppend(t, h, AppendRequest{Documents: []AppendDocument{
		{Name: "live0", Text: "a fresh document joins the quick corpus"},
	}}); rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	after, rec := getResponse(t, h, "/v1/query?task=wordcount")
	if rec.Code != http.StatusOK || after.Cached {
		t.Fatalf("query after append: status %d cached %v", rec.Code, after.Cached)
	}
	if n, size := cacheGauges(t, h); n != 1 || size != int64(len(after.Result)) {
		t.Errorf("after append + one query: cache entries %d bytes %d, want 1 and %d", n, size, len(after.Result))
	}

	// Commit another append while the next query is mid-flight: its
	// result belongs to a generation the server has already left.
	run := s.execute
	var appended atomic.Bool
	s.execute = func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) (*ntadoc.BatchResult, error) {
		if !appended.CompareAndSwap(false, true) {
			return run(ctx, sess, spec)
		}
		if err := eng.Append([]ntadoc.Document{{Name: "live1", Text: "another arrival mid query"}}); err != nil {
			return nil, err
		}
		return run(ctx, sess, spec)
	}
	stale, rec := getResponse(t, h, "/v1/query?task=invertedindex")
	if rec.Code != http.StatusOK || stale.Cached {
		t.Fatalf("query across append: status %d cached %v", rec.Code, stale.Cached)
	}
	if stale.Generation == s.Generation() {
		t.Fatalf("generation %s did not move during the query", stale.Generation)
	}
	if n, size := cacheGauges(t, h); n != 1 || size != int64(len(after.Result)) {
		t.Errorf("stale-generation result stored: cache entries %d bytes %d, want 1 and %d", n, size, len(after.Result))
	}
	if again, _ := getResponse(t, h, "/v1/query?task=invertedindex"); again.Cached {
		t.Error("result computed across a commit was served from the cache")
	}
}

// TestResultCacheGeneration checks the cache's own scoping: a get under
// another generation misses, and a put under a new one drops the old
// generation's entries.
func TestResultCacheGeneration(t *testing.T) {
	c := newResultCache(4)
	c.put("g1", "a", []byte("aa"))
	c.put("g1", "b", []byte("bbb"))
	if _, ok := c.get("g2", "a"); ok {
		t.Error("get under another generation hit")
	}
	if body, ok := c.get("g1", "a"); !ok || string(body) != "aa" {
		t.Errorf("get under own generation = %q, %v", body, ok)
	}
	c.put("g2", "a", []byte("x"))
	if c.len() != 1 || c.size() != 1 {
		t.Errorf("after put under g2: %d entries, %d bytes; want 1, 1", c.len(), c.size())
	}
	if _, ok := c.get("g1", "b"); ok {
		t.Error("old generation's entry survived a put under a new one")
	}
}
