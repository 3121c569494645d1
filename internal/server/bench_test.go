package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// fusedQuery requests the six tasks as one fused batch.
const fusedQuery = "/v1/query?task=wordcount,sort,termvector,invertedindex,seqcount,rankedindex"

// newBenchServer serves dataset A — one 60k-token file, the serve-hot
// corpus — as a 2-shard archive.
func newBenchServer(b *testing.B, cacheEntries int) http.Handler {
	b.Helper()
	files, d := datagen.DatasetA.GenerateWithDict()
	dct := ntadoc.NewDictionary()
	for _, w := range d.Words() {
		dct.Intern(w)
	}
	names := make([]string, len(files))
	for i := range names {
		names[i] = fmt.Sprintf("doc%03d", i)
	}
	a, err := ntadoc.CompressTokensSharded(files, names, dct, 2)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	s, err := New(Config{Engine: eng, CacheEntries: cacheEntries})
	if err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}

// serveBench drives the fused query through the handler b.N times and
// reports the response size as bytes per operation.
func serveBench(b *testing.B, h http.Handler, want string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fusedQuery, nil))
		if rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != want {
			b.Fatalf("status %d, %s %q, want %q", rec.Code, CacheHeader, rec.Header().Get(CacheHeader), want)
		}
		b.SetBytes(int64(rec.Body.Len()))
	}
}

// BenchmarkServeHit serves the fused batch from the result cache: the
// lookup plus the spliced write of the cached body.
func BenchmarkServeHit(b *testing.B) {
	h := newBenchServer(b, 0)
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, fusedQuery, nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d", warm.Code)
	}
	serveBench(b, h, "hit")
}

// BenchmarkServeMiss serves the fused batch with the cache disabled, so
// every request traverses, encodes and writes.
func BenchmarkServeMiss(b *testing.B) {
	serveBench(b, newBenchServer(b, -1), "miss")
}
