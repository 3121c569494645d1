// The operation kernel: every analytics task is one DAG traversal with a
// different per-node action (TADOC's central framing), so each task reduces
// to an Op — a declaration of which traversal it needs (key space + scope)
// plus a Fold that turns the traversal's accumulated counters into the
// task's canonical result.  Executors (core on NVM, tadoc on DRAM, uncomp
// scanning raw text) own the traversal machinery once and run any Op; a
// batch of Ops that agree on traversal requirements shares a single walk
// (fused execution), which is where the modeled device-read savings of
// RunOps come from.
package analytics

import (
	"errors"
	"fmt"
	"slices"

	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// KeySpace declares what an op's counter keys mean.
type KeySpace int

const (
	// KeyWords: counter keys are dictionary word IDs.
	KeyWords KeySpace = iota
	// KeySequences: counter keys are executor-chosen dense sequence
	// identifiers, resolved to Seq values through Env.SeqOf.
	KeySequences
)

// Scope declares the granularity of the counters an op consumes.
type Scope int

const (
	// ScopeGlobal: one corpus-wide counter, delivered via Fold.Global.
	ScopeGlobal Scope = iota
	// ScopePerFile: one counter per document, delivered via Fold.File in
	// ascending document order.
	ScopePerFile
)

// Counts is a read-only view of one accumulated counter.  Range order is
// unspecified; folds must not depend on it.  The view is valid only for the
// duration of the Fold callback it is passed to — executors reuse the
// backing storage between documents.
type Counts interface {
	// Len returns the number of distinct keys.
	Len() int64
	// Range calls fn for every (key, count) pair until fn returns false.
	Range(fn func(key, count uint64) bool)
}

// Env is what an executor offers a Fold: dictionary access, corpus shape,
// sequence-key resolution, and modeled-CPU charging.
type Env interface {
	Dict() *dict.Dictionary
	NumFiles() int
	// SeqOf resolves a KeySequences counter key to its sequence.
	SeqOf(key uint64) Seq
	// Charge adds n operations of perOp modeled nanos each to the run's
	// CPU meter.
	Charge(n, perOp int64)
}

// Fold consumes an op's traversal counters and produces its result.  Exactly
// one of Global/File is used, per the op's Scope; Finish is called once after
// all deliveries.
type Fold interface {
	Global(c Counts) error
	File(doc uint32, c Counts) error
	Finish() (any, error)
}

// Op declares one analytics task to the traversal kernel: which key space
// its counters live in, at what scope they accumulate, and how the fold
// turns them into the task's result.
type Op interface {
	Task() Task
	Name() string
	Keys() KeySpace
	Scope() Scope
	NewFold(env Env) Fold
}

// Executor runs registered ops; every engine implements it.  RunOps executes
// a batch over as few traversals as the ops' declarations allow and returns
// results positionally.
type Executor interface {
	RunOp(op Op) (any, error)
	RunOps(ops []Op) ([]any, error)
}

// RunAs runs one op on x and asserts its concrete result type.
func RunAs[T any](x Executor, op Op) (T, error) {
	var zero T
	v, err := x.RunOp(op)
	if err != nil {
		return zero, err
	}
	out, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("analytics: op %s returned %T", op.Name(), v)
	}
	return out, nil
}

// DefaultTermVectorK is the per-document vector length of the Ops registry.
const DefaultTermVectorK = 10

// Ops returns one registered op per task, in the paper's task order, with
// default parameters.  This is the table the cross-executor differential
// harness iterates.
func Ops() []Op {
	return []Op{
		WordCountOp{},
		SortOp{},
		TermVectorsOp{K: DefaultTermVectorK},
		InvertedIndexOp{},
		SequenceCountOp{},
		RankedInvertedIndexOp{},
	}
}

// OpFor returns the registered op for task t with default parameters.
func OpFor(t Task) (Op, error) {
	for _, op := range Ops() {
		if op.Task() == t {
			return op, nil
		}
	}
	return nil, fmt.Errorf("analytics: no op registered for task %v", t)
}

var errFoldScope = errors.New("analytics: fold called outside its declared scope")

// WordCountOp counts every word's corpus-wide frequency.
type WordCountOp struct{}

func (WordCountOp) Task() Task     { return WordCount }
func (WordCountOp) Name() string   { return "wordcount" }
func (WordCountOp) Keys() KeySpace { return KeyWords }
func (WordCountOp) Scope() Scope   { return ScopeGlobal }
func (WordCountOp) NewFold(env Env) Fold {
	return &wordCountFold{env: env, out: map[uint32]uint64{}}
}

type wordCountFold struct {
	env Env
	out map[uint32]uint64
}

func (f *wordCountFold) Global(c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp)
	f.out = make(map[uint32]uint64, c.Len())
	c.Range(func(k, v uint64) bool { f.out[uint32(k)] = v; return true })
	return nil
}
func (f *wordCountFold) File(uint32, Counts) error { return errFoldScope }
func (f *wordCountFold) Finish() (any, error)      { return f.out, nil }

// SortOp produces the full vocabulary with counts in dictionary order.
type SortOp struct{}

func (SortOp) Task() Task     { return Sort }
func (SortOp) Name() string   { return "sort" }
func (SortOp) Keys() KeySpace { return KeyWords }
func (SortOp) Scope() Scope   { return ScopeGlobal }
func (SortOp) NewFold(env Env) Fold {
	return &sortFold{env: env, out: []WordFreq{}}
}

type sortFold struct {
	env Env
	out []WordFreq
	acc map[uint32]uint64 // shard-merge accumulator; nil on the traversal path
}

func (f *sortFold) Global(c Counts) error {
	out := make([]WordFreq, 0, c.Len())
	c.Range(func(k, v uint64) bool {
		out = append(out, WordFreq{Word: uint32(k), Freq: v})
		return true
	})
	f.env.Charge(int64(len(out)), metrics.CostHashOp+metrics.CostSortEntry)
	SortAlphabetical(out, f.env.Dict())
	f.out = out
	return nil
}
func (f *sortFold) File(uint32, Counts) error { return errFoldScope }
func (f *sortFold) Finish() (any, error) {
	if f.acc != nil {
		out := make([]WordFreq, 0, len(f.acc))
		for w, n := range f.acc {
			out = append(out, WordFreq{Word: w, Freq: n})
		}
		f.env.Charge(int64(len(out)), metrics.CostSortEntry)
		SortAlphabetical(out, f.env.Dict())
		f.out = out
	}
	return f.out, nil
}

// TermVectorsOp produces each document's top-K most frequent words.
type TermVectorsOp struct{ K int }

func (TermVectorsOp) Task() Task     { return TermVector }
func (TermVectorsOp) Name() string   { return "termvectors" }
func (TermVectorsOp) Keys() KeySpace { return KeyWords }
func (TermVectorsOp) Scope() Scope   { return ScopePerFile }
func (o TermVectorsOp) NewFold(env Env) Fold {
	return &termVectorsFold{env: env, k: o.K, out: make([][]WordFreq, env.NumFiles())}
}

type termVectorsFold struct {
	env Env
	k   int
	out [][]WordFreq
}

func (f *termVectorsFold) Global(Counts) error { return errFoldScope }
func (f *termVectorsFold) File(doc uint32, c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp+metrics.CostSortEntry)
	counts := make(map[uint32]uint64, c.Len())
	c.Range(func(k, v uint64) bool { counts[uint32(k)] = v; return true })
	f.out[doc] = TermVectorOf(counts, f.k)
	return nil
}
func (f *termVectorsFold) Finish() (any, error) { return f.out, nil }

// InvertedIndexOp maps every word to the sorted documents containing it.
type InvertedIndexOp struct{}

func (InvertedIndexOp) Task() Task     { return InvertedIndex }
func (InvertedIndexOp) Name() string   { return "invertedindex" }
func (InvertedIndexOp) Keys() KeySpace { return KeyWords }
func (InvertedIndexOp) Scope() Scope   { return ScopePerFile }
func (InvertedIndexOp) NewFold(env Env) Fold {
	return &invertedIndexFold{env: env, out: map[uint32][]uint32{}}
}

type invertedIndexFold struct {
	env Env
	out map[uint32][]uint32
}

func (f *invertedIndexFold) Global(Counts) error { return errFoldScope }
func (f *invertedIndexFold) File(doc uint32, c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp+metrics.CostSortEntry)
	c.Range(func(k, _ uint64) bool {
		f.out[uint32(k)] = append(f.out[uint32(k)], doc)
		return true
	})
	return nil
}
func (f *invertedIndexFold) Finish() (any, error) {
	// Documents arrive in ascending order but Range order within a document
	// is unspecified, so each posting list still needs its final sort.
	for w := range f.out {
		slices.Sort(f.out[w])
	}
	return f.out, nil
}

// SequenceCountOp counts every SeqLen-window's corpus-wide frequency.
type SequenceCountOp struct{}

func (SequenceCountOp) Task() Task     { return SequenceCount }
func (SequenceCountOp) Name() string   { return "seqcount" }
func (SequenceCountOp) Keys() KeySpace { return KeySequences }
func (SequenceCountOp) Scope() Scope   { return ScopeGlobal }
func (SequenceCountOp) NewFold(env Env) Fold {
	return &seqCountFold{env: env, out: map[Seq]uint64{}}
}

type seqCountFold struct {
	env Env
	out map[Seq]uint64
}

func (f *seqCountFold) Global(c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp)
	f.out = make(map[Seq]uint64, c.Len())
	c.Range(func(k, v uint64) bool { f.out[f.env.SeqOf(k)] = v; return true })
	return nil
}
func (f *seqCountFold) File(uint32, Counts) error { return errFoldScope }
func (f *seqCountFold) Finish() (any, error)      { return f.out, nil }

// RankedInvertedIndexOp maps every sequence to its postings ranked by
// frequency.
type RankedInvertedIndexOp struct{}

func (RankedInvertedIndexOp) Task() Task     { return RankedInvertedIndex }
func (RankedInvertedIndexOp) Name() string   { return "rankedindex" }
func (RankedInvertedIndexOp) Keys() KeySpace { return KeySequences }
func (RankedInvertedIndexOp) Scope() Scope   { return ScopePerFile }
func (RankedInvertedIndexOp) NewFold(env Env) Fold {
	return &rankedIndexFold{env: env, perDoc: map[uint64][]DocFreq{}}
}

type rankedIndexFold struct {
	env    Env
	perDoc map[uint64][]DocFreq
	merged map[Seq][]DocFreq // shard-merge accumulator; nil on the traversal path
}

func (f *rankedIndexFold) Global(Counts) error { return errFoldScope }
func (f *rankedIndexFold) File(doc uint32, c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp)
	c.Range(func(k, v uint64) bool {
		f.perDoc[k] = append(f.perDoc[k], DocFreq{Doc: doc, Freq: v})
		return true
	})
	return nil
}
func (f *rankedIndexFold) Finish() (any, error) {
	if f.merged != nil {
		out := make(map[Seq][]DocFreq, len(f.merged))
		for q, postings := range f.merged {
			f.env.Charge(int64(len(postings)), metrics.CostSortEntry)
			out[q] = RankPostingsSorted(postings)
		}
		return out, nil
	}
	out := make(map[Seq][]DocFreq, len(f.perDoc))
	for k, postings := range f.perDoc {
		f.env.Charge(int64(len(postings)), metrics.CostSortEntry)
		out[f.env.SeqOf(k)] = RankPostingsSorted(postings)
	}
	return out, nil
}

// MapCounts adapts a plain uint64-keyed count map.
type MapCounts map[uint64]uint64

func (m MapCounts) Len() int64 { return int64(len(m)) }
func (m MapCounts) Range(fn func(k, v uint64) bool) {
	//ntalint:ignore determcheck Counts.Range order is contractually unspecified; folds consume it commutatively and sort at Finish.
	for k, v := range m {
		if !fn(k, v) {
			return
		}
	}
}

// WordMapCounts adapts a word-keyed count map.
type WordMapCounts map[uint32]uint64

func (m WordMapCounts) Len() int64 { return int64(len(m)) }
func (m WordMapCounts) Range(fn func(k, v uint64) bool) {
	//ntalint:ignore determcheck Counts.Range order is contractually unspecified; folds consume it commutatively and sort at Finish.
	for k, v := range m {
		if !fn(uint64(k), v) {
			return
		}
	}
}

// KVCounts is a materialized Counts over parallel key/value slices.
type KVCounts struct {
	Keys []uint64
	Vals []uint64
}

func (c KVCounts) Len() int64 { return int64(len(c.Keys)) }
func (c KVCounts) Range(fn func(k, v uint64) bool) {
	for i, k := range c.Keys {
		if !fn(k, c.Vals[i]) {
			return
		}
	}
}

// SeqInterner assigns dense uint64 keys to sequences for one executor run.
// DRAM executors whose natural counters are Seq-keyed use it to satisfy the
// KeySequences key contract: Counts views carry interned keys, and SeqOf
// resolves them back.
type SeqInterner struct {
	ids  map[Seq]uint64
	seqs []Seq
}

// Key returns q's dense key, assigning the next one on first sight.
func (si *SeqInterner) Key(q Seq) uint64 {
	if si.ids == nil {
		si.ids = make(map[Seq]uint64)
	}
	id, ok := si.ids[q]
	if !ok {
		id = uint64(len(si.seqs))
		si.ids[q] = id
		si.seqs = append(si.seqs, q)
	}
	return id
}

// SeqOf resolves a key previously returned by Key.
func (si *SeqInterner) SeqOf(k uint64) Seq { return si.seqs[k] }

// Counts interns every key of m and returns a materialized view.  Keys are
// interned in canonical sequence order: interning straight off the map range
// would let Go's randomized iteration order pick the dense keys, so interned
// results (and everything keyed by them downstream) would differ between
// identical runs.
func (si *SeqInterner) Counts(m map[Seq]uint64) Counts {
	qs := make([]Seq, 0, len(m))
	for q := range m {
		qs = append(qs, q)
	}
	slices.SortFunc(qs, CompareSeq)
	kv := KVCounts{
		Keys: make([]uint64, 0, len(m)),
		Vals: make([]uint64, 0, len(m)),
	}
	for _, q := range qs {
		kv.Keys = append(kv.Keys, si.Key(q))
		kv.Vals = append(kv.Vals, m[q])
	}
	return kv
}
