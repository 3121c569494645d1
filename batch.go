package ntadoc

import (
	"fmt"
	"sort"
	"strings"

	"github.com/text-analytics/ntadoc/internal/analytics"
)

// Task names one of the six analytics tasks for batch execution.
type Task int

// The analytics tasks, in the paper's order.
const (
	TaskWordCount Task = iota
	TaskSort
	TaskTermVectors
	TaskInvertedIndex
	TaskSequenceCount
	TaskRankedInvertedIndex
)

// AllTasks lists every task in the paper's order.
var AllTasks = []Task{
	TaskWordCount, TaskSort, TaskTermVectors,
	TaskInvertedIndex, TaskSequenceCount, TaskRankedInvertedIndex,
}

// String returns the task's command-line name.
func (t Task) String() string {
	switch t {
	case TaskWordCount:
		return "wordcount"
	case TaskSort:
		return "sort"
	case TaskTermVectors:
		return "termvector"
	case TaskInvertedIndex:
		return "invertedindex"
	case TaskSequenceCount:
		return "seqcount"
	case TaskRankedInvertedIndex:
		return "rankedindex"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// ParseTask resolves a command-line task name.
func ParseTask(s string) (Task, error) {
	for _, t := range AllTasks {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("ntadoc: unknown task %q", s)
}

// NeedsSequences reports whether the task requires sequence preprocessing
// (i.e. it fails on engines built with NoSequences).
func (t Task) NeedsSequences() bool {
	return t == TaskSequenceCount || t == TaskRankedInvertedIndex
}

// op returns the task's registered analytics op; k is the term-vector
// length (k <= 0 keeps every entry).
func (t Task) op(k int) (analytics.Op, error) {
	switch t {
	case TaskWordCount:
		return analytics.WordCountOp{}, nil
	case TaskSort:
		return analytics.SortOp{}, nil
	case TaskTermVectors:
		return analytics.TermVectorsOp{K: k}, nil
	case TaskInvertedIndex:
		return analytics.InvertedIndexOp{}, nil
	case TaskSequenceCount:
		return analytics.SequenceCountOp{}, nil
	case TaskRankedInvertedIndex:
		return analytics.RankedInvertedIndexOp{}, nil
	default:
		return nil, fmt.Errorf("ntadoc: unknown task %d", int(t))
	}
}

// BatchSpec is a canonicalized batch request: the deduplicated tasks in the
// paper's order plus the batch's only parameter, the term-vector length.
// Canonical form is what makes request shaping shareable — the CLI's
// one-shot path, the daemon's coalescer (which keys in-flight singleflights
// by Signature), and its result cache all reduce a request to the same
// BatchSpec, so "sort,wordcount" and "wordcount,sort" are one batch
// everywhere.  The zero value is an empty batch.
type BatchSpec struct {
	tasks []Task
	k     int
}

// NewBatchSpec canonicalizes a batch request: tasks are deduplicated and
// ordered canonically (the paper's task order), and termVectorK is dropped
// unless the batch computes term vectors with a non-default length.
// Unknown Task values are preserved and surface as errors at execution.
func NewBatchSpec(tasks []Task, termVectorK int) BatchSpec {
	uniq := make([]Task, 0, len(tasks))
	seen := make(map[Task]bool, len(tasks))
	for _, t := range tasks {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	if termVectorK <= 0 || termVectorK == analytics.DefaultTermVectorK || !seen[TaskTermVectors] {
		termVectorK = 0
	}
	return BatchSpec{tasks: uniq, k: termVectorK}
}

// ParseBatchSpec canonicalizes a batch request given by task names.
func ParseBatchSpec(names []string, termVectorK int) (BatchSpec, error) {
	tasks := make([]Task, 0, len(names))
	for _, name := range names {
		t, err := ParseTask(strings.TrimSpace(name))
		if err != nil {
			return BatchSpec{}, err
		}
		tasks = append(tasks, t)
	}
	return NewBatchSpec(tasks, termVectorK), nil
}

// Tasks returns the canonical task list.
func (b BatchSpec) Tasks() []Task { return append([]Task(nil), b.tasks...) }

// TermVectorK returns the term-vector length (0 means the default).
func (b BatchSpec) TermVectorK() int { return b.k }

// NeedsSequences reports whether any task in the batch requires sequence
// preprocessing.
func (b BatchSpec) NeedsSequences() bool {
	for _, t := range b.tasks {
		if t.NeedsSequences() {
			return true
		}
	}
	return false
}

// Signature returns the batch's canonical string form, e.g.
// "wordcount+termvector@k=5".  Equal signatures mean identical batches:
// the daemon's coalescer and result cache key on it.
func (b BatchSpec) Signature() string {
	names := make([]string, len(b.tasks))
	for i, t := range b.tasks {
		names[i] = t.String()
	}
	sig := strings.Join(names, "+")
	if b.k > 0 {
		sig += fmt.Sprintf("@k=%d", b.k)
	}
	return sig
}

// ops materializes the batch's analytics ops.
func (b BatchSpec) ops() ([]analytics.Op, error) {
	k := b.k
	if k == 0 {
		k = analytics.DefaultTermVectorK
	}
	ops := make([]analytics.Op, len(b.tasks))
	for i, t := range b.tasks {
		op, err := t.op(k)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// BatchResult holds the results of one fused batch.  Only the fields of the
// tasks that were requested are populated.  TermVectors holds the spec's
// term-vector length (default analytics.DefaultTermVectorK entries per
// document).
type BatchResult struct {
	WordCount           map[string]uint64
	Sort                []TermCount
	TermVectors         [][]TermCount
	InvertedIndex       map[string][]string
	SequenceCount       map[string]uint64
	RankedInvertedIndex map[string][]DocCount
}

// RunBatch executes the given tasks as one fused traversal: the underlying
// engine walks its representation once and feeds every compatible task from
// the same reads, so a batch costs substantially fewer modeled device reads
// than running the tasks sequentially.  Duplicate tasks are computed once.
func (e *Engine) RunBatch(tasks ...Task) (*BatchResult, error) {
	return e.RunSpec(NewBatchSpec(tasks, 0))
}

// RunSpec executes a canonicalized batch on the engine's task path — the
// request-shaping codepath shared with the daemon (which runs the same specs
// through pooled query sessions).
func (e *Engine) RunSpec(spec BatchSpec) (*BatchResult, error) {
	if len(spec.tasks) == 0 {
		return &BatchResult{}, nil
	}
	ops, err := spec.ops()
	if err != nil {
		return nil, err
	}
	results, err := e.x.RunOps(ops)
	if err != nil {
		return nil, err
	}
	return e.convertBatch(spec.tasks, results), nil
}

// convertBatch maps the kernel's ID-keyed op results onto the public
// string-keyed BatchResult, slot by slot: results[i] is tasks[i]'s result.
func (e *Engine) convertBatch(tasks []Task, results []any) *BatchResult {
	out := &BatchResult{}
	for i, t := range tasks {
		switch t {
		case TaskWordCount:
			out.WordCount = e.convWordCounts(results[i].(map[uint32]uint64))
		case TaskSort:
			out.Sort = e.convTermCounts(results[i].([]analytics.WordFreq))
		case TaskTermVectors:
			out.TermVectors = e.convTermVectors(results[i].([][]analytics.WordFreq))
		case TaskInvertedIndex:
			out.InvertedIndex = e.convInvertedIndex(results[i].(map[uint32][]uint32))
		case TaskSequenceCount:
			out.SequenceCount = e.convSequenceCounts(results[i].(map[analytics.Seq]uint64))
		case TaskRankedInvertedIndex:
			out.RankedInvertedIndex = e.convRankedIndex(results[i].(map[analytics.Seq][]analytics.DocFreq))
		}
	}
	return out
}

// Conversions from internal ID-keyed results to the public string-keyed
// forms, one per task slot of convertBatch.

func (e *Engine) convWordCounts(counts map[uint32]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(counts))
	for id, c := range counts {
		out[e.a.d.Word(id)] = c
	}
	return out
}

func (e *Engine) convTermCounts(wf []analytics.WordFreq) []TermCount {
	out := make([]TermCount, len(wf))
	for i, w := range wf {
		out[i] = TermCount{Term: e.a.d.Word(w.Word), Count: w.Freq}
	}
	return out
}

func (e *Engine) convTermVectors(tv [][]analytics.WordFreq) [][]TermCount {
	out := make([][]TermCount, len(tv))
	for i, vec := range tv {
		out[i] = e.convTermCounts(vec)
	}
	return out
}

func (e *Engine) convInvertedIndex(inv map[uint32][]uint32) map[string][]string {
	table := e.docNames()
	out := make(map[string][]string, len(inv))
	for id, docs := range inv {
		names := make([]string, len(docs))
		for i, doc := range docs {
			names[i] = table[doc]
		}
		out[e.a.d.Word(id)] = names
	}
	return out
}

func (e *Engine) convSequenceCounts(sc map[analytics.Seq]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(sc))
	for q, c := range sc {
		out[e.seqKey(q)] = c
	}
	return out
}

func (e *Engine) convRankedIndex(rii map[analytics.Seq][]analytics.DocFreq) map[string][]DocCount {
	table := e.docNames()
	out := make(map[string][]DocCount, len(rii))
	for q, postings := range rii {
		row := make([]DocCount, len(postings))
		for i, p := range postings {
			row[i] = DocCount{Doc: table[p.Doc], Count: p.Freq}
		}
		out[e.seqKey(q)] = row
	}
	return out
}

func (e *Engine) seqKey(q analytics.Seq) string {
	words := make([]string, len(q))
	for i, id := range q {
		words[i] = e.a.d.Word(id)
	}
	return strings.Join(words, " ")
}
