package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// workload is one set of inputs the benchmark runs: a corpus shape, the
// archive's shard count, the daemon flags it needs beyond the defaults, and
// the request mix its clients send.
type workload struct {
	name   string
	corpus datagen.Spec
	shards int
	// feedRate is the append feed's batches per second (ingest only): the
	// feed is a live source arriving on a schedule, so its size is
	// feedRate*appendBatch documents per second of the window.
	feedRate int
	// randomK, when set, makes every request this batch of tasks with a
	// seeded-random term-vector k, so signatures rarely repeat and every
	// request costs about the same; otherwise clients cycle the default mix.
	randomK []ntadoc.Task
	// replayQueries is the length of the traced replay's query sequence.
	replayQueries int
	// fileTokens, when set, fixes every document's length.
	fileTokens int
}

// appendBatch is the number of documents per /v1/append request.
const appendBatch = 8

// bDocs is the document count of the dataset B analogue used here: B's
// document shape (~90-token abstracts over an 18k-word Zipfian vocabulary)
// at an eighth of its file count, so a miss traverses in tens of
// milliseconds and a run collects several times the 200 queries its p95
// needs.
const bDocs = 200

var workloads = []workload{
	{
		// One file of A's mean size, 60k tokens: a single-file corpus is
		// one shard.
		name: "serve-hot", corpus: datagen.DatasetA, shards: 1,
		replayQueries: 2000, fileTokens: datagen.DatasetA.TokensPer,
	},
	{
		name: "serve-miss", corpus: withFiles(datagen.DatasetB, bDocs), shards: 2,
		randomK: allTasks, replayQueries: 200,
	},
	{
		name: "ingest", corpus: withFiles(datagen.DatasetB, 2*bDocs), shards: 2,
		randomK: []ntadoc.Task{ntadoc.TaskTermVectors}, feedRate: 5, replayQueries: 200,
	},
}

func withFiles(s datagen.Spec, n int) datagen.Spec {
	s.Files = n
	return s
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// corpus is a workload's generated input: the base documents as token
// streams over their own dictionary, and (for ingest) the append stream as
// text.
type corpus struct {
	tokens [][]uint32
	names  []string
	words  []string // base dictionary in ID order
	stream []ntadoc.Document
}

// streamPool is how many candidate documents per stream document the
// ingest feed samples from.
const streamPool = 4

// genCorpus builds the workload's inputs.  The base corpus is the dataset
// analogue under the shape's own datagen seed, the same for every benchmark
// seed: drawn under other seeds, its phrase pool and vocabulary moved the
// cost of every operation by ±10%, which would spread the figures of runs
// that differ only in seed.  The benchmark seed drives the traffic instead:
// the request sequences and, for ingest, which documents the feed appends
// and in what order, sampled from further documents drawn with the base.
// The base dictionary holds only the words the base uses, so the feed
// brings novel words the daemon's dictionary must grow by, as live text
// does.
func genCorpus(w workload, seed int64, streamDocs int) corpus {
	spec := w.corpus
	spec.Files += streamPool * streamDocs
	if w.fileTokens > 0 {
		// Every drawn document is at least half of TokensPer long.
		spec.TokensPer = 2 * w.fileTokens
	}
	files, d := spec.GenerateWithDict()
	if w.fileTokens > 0 {
		for i := range files {
			files[i] = files[i][:w.fileTokens]
		}
	}
	all := d.Words()
	base, pool := files[:w.corpus.Files], files[w.corpus.Files:]

	var c corpus
	ids := map[uint32]uint32{}
	for i, f := range base {
		t := make([]uint32, len(f))
		for j, id := range f {
			nid, ok := ids[id]
			if !ok {
				nid = uint32(len(c.words))
				ids[id] = nid
				c.words = append(c.words, all[id])
			}
			t[j] = nid
		}
		c.tokens = append(c.tokens, t)
		c.names = append(c.names, fmt.Sprintf("doc%04d", i))
	}
	r := rand.New(rand.NewSource(seed))
	for i, p := range r.Perm(len(pool))[:streamDocs] {
		ws := make([]string, len(pool[p]))
		for j, id := range pool[p] {
			ws[j] = all[id]
		}
		c.stream = append(c.stream, ntadoc.Document{
			Name: fmt.Sprintf("live%04d", i),
			Text: strings.Join(ws, " "),
		})
	}
	return c
}

// tokenCount is the base corpus size in tokens.
func (c corpus) tokenCount() int {
	n := 0
	for _, t := range c.tokens {
		n += len(t)
	}
	return n
}

// compress builds the workload's archive through the public API.
func (c corpus) compress(shards int) (*ntadoc.Archive, error) {
	d := ntadoc.NewDictionary()
	for _, w := range c.words {
		d.Intern(w)
	}
	if shards == 1 {
		return ntadoc.CompressTokens(c.tokens, c.names, d)
	}
	return ntadoc.CompressTokensSharded(c.tokens, c.names, d, shards)
}

// allTasks is the six tasks in the paper's order.
var allTasks = []ntadoc.Task{
	ntadoc.TaskWordCount, ntadoc.TaskSort, ntadoc.TaskTermVectors,
	ntadoc.TaskInvertedIndex, ntadoc.TaskSequenceCount, ntadoc.TaskRankedInvertedIndex,
}

// defaultMix is the six tasks alone plus the fused six-task batch.
func defaultMix() []ntadoc.BatchSpec {
	mix := make([]ntadoc.BatchSpec, 0, len(allTasks)+1)
	for _, t := range allTasks {
		mix = append(mix, ntadoc.NewBatchSpec([]ntadoc.Task{t}, 0))
	}
	return append(mix, ntadoc.NewBatchSpec(allTasks, 0))
}

// maxK bounds the seeded term-vector length of random-k requests: about
// 4k signatures, far beyond the daemon's 512-entry result cache.
const maxK = 4096

// querySequence is the seeded request sequence client c sends (0 or 1).
// The untimed runs draw from it for as long as the window lasts; the traced
// replay walks a fixed prefix of it, alternating between the two clients.
// A default-mix client starts the cycle at a seeded offset; a random-k
// client draws each k from the seed.
type querySequence struct {
	mix   []ntadoc.BatchSpec
	tasks []ntadoc.Task
	r     *rand.Rand
	i     int
}

func newQuerySequence(w workload, seed int64, client int) *querySequence {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	if w.randomK != nil {
		return &querySequence{tasks: w.randomK, r: r}
	}
	mix := defaultMix()
	return &querySequence{mix: mix, i: r.Intn(len(mix))}
}

// next is the client's next request.  A random-k request draws k in
// [11, maxK]: 10 is the default, which canonicalizes away.
func (q *querySequence) next() ntadoc.BatchSpec {
	if q.r != nil {
		return ntadoc.NewBatchSpec(q.tasks, 11+q.r.Intn(maxK-10))
	}
	s := q.mix[q.i%len(q.mix)]
	q.i++
	return s
}

// queryPath is the GET path and query string for a batch.
func queryPath(s ntadoc.BatchSpec) string {
	tasks := s.Tasks()
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.String()
	}
	v := url.Values{"task": {strings.Join(names, ",")}}
	if k := s.TermVectorK(); k > 0 {
		v.Set("k", strconv.Itoa(k))
	}
	return "/v1/query?" + v.Encode()
}
