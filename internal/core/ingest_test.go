package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// refResults computes the six reference results over raw token streams, in
// analytics.Ops() order.
func refResults(t *testing.T, d *dict.Dictionary, files [][]uint32, k int) []any {
	t.Helper()
	want := make([]any, 0, 6)
	for _, op := range analytics.Ops() {
		switch op.(type) {
		case analytics.WordCountOp:
			want = append(want, analytics.RefWordCount(files))
		case analytics.SortOp:
			want = append(want, analytics.RefSort(files, d))
		case analytics.TermVectorsOp:
			want = append(want, analytics.RefTermVector(files, k))
		case analytics.InvertedIndexOp:
			want = append(want, analytics.RefInvertedIndex(files))
		case analytics.SequenceCountOp:
			want = append(want, analytics.RefSequenceCount(files))
		case analytics.RankedInvertedIndexOp:
			want = append(want, analytics.RefRankedInvertedIndex(files))
		default:
			t.Fatalf("unhandled op %s", op.Name())
		}
	}
	return want
}

// newOneShard builds a one-shard engine set over g: every appendable engine
// serves its appends through the sharded coordinator, so unsharded corpora
// are tested as K=1.
func newOneShard(t testing.TB, g *cfg.Grammar, d *dict.Dictionary, opts Options) *ShardedEngine {
	t.Helper()
	se, err := NewSharded([]*cfg.Grammar{g}, d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { se.Close() })
	return se
}

// forceCompaction compacts every shard with a live delta.
var forceCompaction = CompactionPolicy{MaxDeltaDocs: -1, MaxDeltaBytes: -1}

func appendDocs(files [][]uint32, base int, n int) []AppendDoc {
	docs := make([]AppendDoc, 0, n)
	for i := base; i < base+n && i < len(files); i++ {
		docs = append(docs, AppendDoc{Name: fmt.Sprintf("appended%d", i), Tokens: files[i]})
	}
	return docs
}

// checkOps runs the executor's batch and compares each result to the
// reference over the given visible token streams.
func checkOps(t *testing.T, ex analytics.Executor, d *dict.Dictionary, files [][]uint32, label string) {
	t.Helper()
	ops := analytics.Ops()
	got, err := ex.RunOps(ops)
	if err != nil {
		t.Fatalf("%s: RunOps: %v", label, err)
	}
	want := refResults(t, d, files, tvK(ops))
	for i, op := range ops {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: op %s differs from reference", label, op.Name())
		}
	}
}

func tvK(ops []analytics.Op) int {
	for _, op := range ops {
		if tv, ok := op.(analytics.TermVectorsOp); ok {
			return tv.K
		}
	}
	return 0
}

// TestAppendBitIdentity: after every append batch (and after a compaction in
// the middle), all six ops — fused in one batch — must be bit-identical to
// the reference over the visible token streams.
func TestAppendBitIdentity(t *testing.T) {
	files, d, _ := corpus(t, 71, 10, 200, 30)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	checkOps(t, e, d, files[:base], "pre-append")

	vocab := uint32(d.Len())
	visible := base
	batchSizes := []int{1, 2, 1, 2}
	for bi, n := range batchSizes {
		if err := e.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
			t.Fatalf("Append batch %d: %v", bi, err)
		}
		visible += n
		checkOps(t, e, d, files[:visible], fmt.Sprintf("after batch %d", bi))
		// Sessions opened after the append observe it too.
		checkOps(t, e.NewSession(), d, files[:visible], fmt.Sprintf("session after batch %d", bi))
		if bi == 1 {
			if _, err := e.CompactIfNeeded(forceCompaction); err != nil {
				t.Fatalf("CompactIfNeeded: %v", err)
			}
			checkOps(t, e, d, files[:visible], "after compaction")
		}
	}
	if visible != len(files) {
		t.Fatalf("test consumed %d of %d files", visible, len(files))
	}
	st := e.IngestStats()
	if st.Batches != uint64(len(batchSizes)) || st.Docs != uint64(len(files)-base) {
		t.Errorf("stats report %d batches / %d docs, want %d / %d",
			st.Batches, st.Docs, len(batchSizes), len(files)-base)
	}
	if st.Compactions != 1 || st.CompactedDocs == 0 {
		t.Errorf("stats report %d compactions over %d docs, want 1 over >0",
			st.Compactions, st.CompactedDocs)
	}
	if got := e.CorpusEpoch(); got != uint64(len(batchSizes))+1 {
		t.Errorf("corpus epoch %d, want %d (batches + compactions)", got, len(batchSizes)+1)
	}
}

// TestAppendNovelWords: appended documents may extend the shared dictionary;
// results and recovery must account for the grown vocabulary.
func TestAppendNovelWords(t *testing.T) {
	files, d, _ := corpus(t, 72, 4, 150, 25)
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})

	novel := []string{"xenon", "ytterbium"}
	ids := make([]uint32, len(novel))
	for i, w := range novel {
		ids[i] = d.Intern(w)
	}
	doc := []uint32{ids[0], ids[1], ids[0], files[0][0], files[0][1]}
	if err := e.Append([]AppendDoc{{Name: "novel", Tokens: doc}}, uint32(d.Len()), novel); err != nil {
		t.Fatalf("Append: %v", err)
	}
	all := append(append([][]uint32{}, files...), doc)
	checkOps(t, e, d, all, "after novel append")

	// Recovery must re-intern the novel words in order.
	dev := e.Shard(0).Device()
	if err := dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	d2 := rebuildDict(t, d, len(d.Words())-len(novel))
	re, _, err := ReopenSharded([]*nvm.SimDevice{dev}, d2, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	for i, w := range novel {
		id, ok := d2.Lookup(w)
		if !ok || id != ids[i] {
			t.Errorf("recovered dictionary maps %q to (%d, %v), want (%d, true)", w, id, ok, ids[i])
		}
	}
	checkOps(t, re, d2, all, "recovered")
}

// rebuildDict reconstructs the pre-append dictionary: the first n words of d
// in ID order, as a caller reopening from persisted inputs would hold.
func rebuildDict(t *testing.T, d *dict.Dictionary, n int) *dict.Dictionary {
	t.Helper()
	nd := dict.New()
	for _, w := range d.Words()[:n] {
		nd.Intern(w)
	}
	return nd
}

// TestAppendValidation covers the append error contract.
func TestAppendValidation(t *testing.T) {
	files, d, g := corpus(t, 73, 3, 100, 20)
	plain := newOneShard(t, g, d, Options{})
	if err := plain.Append(appendDocs(files, 0, 1), uint32(d.Len()), nil); !errors.Is(err, ErrNoIngest) {
		t.Errorf("append without ingestion: err = %v, want ErrNoIngest", err)
	}
	if _, err := plain.RunOps(analytics.Ops()[:1]); err != nil {
		t.Errorf("plain engine query after ErrNoIngest: %v", err)
	}

	e := newOneShard(t, g, d, Options{IngestCap: 256})
	if err := e.Append(appendDocs(files, 0, 1), uint32(d.Len())-1, nil); err == nil {
		t.Error("shrinking vocabulary accepted")
	}
	if err := e.Append([]AppendDoc{{Name: "bad", Tokens: []uint32{uint32(d.Len()) + 7}}},
		uint32(d.Len()), nil); err == nil {
		t.Error("out-of-vocabulary token accepted")
	}
	// A tiny log fills after a batch or two.
	var full bool
	for i := 0; i < 16; i++ {
		if err := e.Append(appendDocs(files, i%len(files), 1), uint32(d.Len()), nil); err != nil {
			if !errors.Is(err, ErrIngestFull) {
				t.Fatalf("append %d: err = %v, want ErrIngestFull", i, err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Error("256-byte log never filled")
	}
}

// TestIngestRecovery: committed appends survive crash and reopen — batches,
// epoch, and all six results.
func TestIngestRecovery(t *testing.T) {
	files, d, _ := corpus(t, 74, 8, 180, 30)
	const base = 5
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := e.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	dev := e.Shard(0).Device()
	if err := dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, _, err := ReopenSharded([]*nvm.SimDevice{dev}, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	if got := re.CorpusEpoch(); got != uint64(len(files)-base) {
		t.Errorf("recovered epoch %d, want %d", got, len(files)-base)
	}
	if got := len(re.Shard(0).IngestBatches()); got != len(files)-base {
		t.Errorf("recovered %d batches, want %d", got, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered")

	// Appending continues after recovery.
	if err := re.Append([]AppendDoc{{Name: "post", Tokens: files[0]}}, vocab, nil); err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	checkOps(t, re, d, append(append([][]uint32{}, files...), files[0]), "post-recovery append")
}

// TestShardedAppendBitIdentity: the sharded coordinator routes appends to
// shards while numbering documents globally; results must stay bit-identical
// to the unsharded reference at every K, including after per-shard
// compactions.
func TestShardedAppendBitIdentity(t *testing.T) {
	files, d, _ := corpus(t, 75, 10, 180, 30)
	const base = 6
	for k := 1; k <= 4; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), k)
			if err != nil {
				t.Fatalf("InferShards: %v", err)
			}
			se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			t.Cleanup(func() { se.Close() })
			vocab := uint32(d.Len())
			visible := base
			for bi, n := range []int{1, 2, 1} {
				if err := se.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
					t.Fatalf("Append batch %d: %v", bi, err)
				}
				visible += n
				checkOps(t, se, d, files[:visible], fmt.Sprintf("after batch %d", bi))
				checkOps(t, se.NewSession(), d, files[:visible], fmt.Sprintf("session after batch %d", bi))
			}
			// Force-compact every shard with a delta and re-verify.
			if _, err := se.CompactIfNeeded(forceCompaction); err != nil {
				t.Fatalf("CompactIfNeeded: %v", err)
			}
			checkOps(t, se, d, files[:visible], "after compaction")
			// And appends keep landing after compaction.
			if err := se.Append(appendDocs(files, 0, 1), vocab, nil); err != nil {
				t.Fatalf("post-compaction Append: %v", err)
			}
			checkOps(t, se, d, append(append([][]uint32{}, files[:visible]...), files[0]), "post-compaction append")
		})
	}
}

// TestShardedIngestRecovery: a sharded reopen reassembles the global append
// order from the per-shard logs.
func TestShardedIngestRecovery(t *testing.T) {
	files, d, _ := corpus(t, 76, 9, 150, 25)
	const base = 5
	gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	devs := make([]*nvm.SimDevice, se.NumShards())
	for i := range devs {
		devs[i] = se.Shard(i).Device()
		if err := devs[i].Crash(); err != nil {
			t.Fatalf("Crash shard %d: %v", i, err)
		}
	}
	re, _, err := ReopenSharded(devs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	if got := re.CorpusEpoch(); got != uint64(len(files)-base) {
		t.Errorf("recovered epoch %d, want %d", got, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered sharded")
	if err := re.Append(appendDocs(files, 0, 1), vocab, nil); err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	checkOps(t, re, d, append(append([][]uint32{}, files...), files[0]), "post-recovery append")
}

// TestAppendConcurrentQueries: appends never block queries, and every query
// observes a consistent cut — exactly the first N documents for some N
// between the committed count when it started and when it finished.  Run
// under -race this is the ingestion concurrency test.
func TestAppendConcurrentQueries(t *testing.T) {
	files, d, _ := corpus(t, 77, 12, 120, 25)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	vocab := uint32(d.Len())

	refs := make(map[int][]any, len(files)-base+1)
	ops := analytics.Ops()
	for n := base; n <= len(files); n++ {
		refs[n] = refResults(t, d, files[:n], tvK(ops))
	}

	var wg sync.WaitGroup
	appendErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := base; i < len(files); i++ {
			if err := e.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
				appendErr <- err
				return
			}
		}
	}()
	const readers = 3
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession()
			for iter := 0; iter < 8; iter++ {
				got, err := s.RunOps(ops)
				if err != nil {
					errs[r] = err
					return
				}
				tv, ok := got[2].([][]analytics.WordFreq)
				if !ok {
					errs[r] = fmt.Errorf("op 2 returned %T, want term vectors", got[2])
					return
				}
				n := len(tv)
				want, ok := refs[n]
				if !ok {
					errs[r] = fmt.Errorf("query observed %d documents, outside [%d, %d]", n, base, len(files))
					return
				}
				for i, op := range ops {
					if !reflect.DeepEqual(got[i], want[i]) {
						errs[r] = fmt.Errorf("op %s inconsistent with the %d-document cut", op.Name(), n)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-appendErr:
		t.Fatalf("Append: %v", err)
	default:
	}
	for r, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
		}
	}
	checkOps(t, e, d, files, "after concurrent phase")
}

// TestCompactorWorker: the background worker compacts once the delta crosses
// the policy thresholds, and results stay correct throughout.
func TestCompactorWorker(t *testing.T) {
	files, d, _ := corpus(t, 78, 10, 100, 25)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	c := StartCompactor(e, CompactionPolicy{MaxDeltaDocs: 2, Interval: time.Millisecond})
	defer c.Stop()
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		// The worker may hold the compaction lock; retry rejected appends.
		for {
			err := e.Append(appendDocs(files, i, 1), vocab, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrCompacting) {
				t.Fatalf("Append %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runs, err := c.Runs(); runs > 0 {
			if err != nil {
				t.Fatalf("compactor error after %d runs: %v", runs, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compactor never ran")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	checkOps(t, e, d, files, "after background compaction")
	if st := e.IngestStats(); st.Compactions == 0 {
		t.Error("stats report no compactions")
	}
}

// TestFailoverServesAckedAppends: followers carry the append log (it rides
// the drained commit stream like every other durable write), so when every
// primary dies after a run of appends — with or without a compaction in
// between — the promoted followers serve every acknowledged append,
// bit-identically to an engine rebuilt from scratch over the whole corpus.
func TestFailoverServesAckedAppends(t *testing.T) {
	files, d, all := corpus(t, 79, 9, 150, 25)
	const base = 5
	ops := analytics.Ops()
	rebuilt := newEngine(t, all, d, Options{Sequences: true})
	want, err := rebuilt.RunOps(ops)
	if err != nil {
		t.Fatalf("rebuilt RunOps: %v", err)
	}
	for _, k := range []int{1, 2} {
		for _, p := range []Persistence{PhaseLevel, OpLevel} {
			for _, compact := range []bool{false, true} {
				t.Run(fmt.Sprintf("k=%d/%v/compact=%v", k, p, compact), func(t *testing.T) {
					gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), k)
					if err != nil {
						t.Fatalf("InferShards: %v", err)
					}
					se, err := NewSharded(gs, d, Options{
						Sequences:   true,
						Persistence: p,
						IngestCap:   1 << 20,
						Replication: Replication{Followers: 1, Mode: ShipSync},
					})
					if err != nil {
						t.Fatalf("NewSharded: %v", err)
					}
					t.Cleanup(func() { se.Close() })
					vocab := uint32(d.Len())
					for i := base; i < len(files); i++ {
						if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
							t.Fatalf("Append %d: %v", i, err)
						}
						if compact && i == base+1 {
							if _, err := se.CompactIfNeeded(forceCompaction); err != nil {
								t.Fatalf("CompactIfNeeded: %v", err)
							}
						}
					}
					dead := make([]*nvm.SimDevice, se.NumShards())
					for i := range dead {
						dead[i] = se.Shard(i).Device()
						dead[i].FailFromPersistEvent(dead[i].PersistEvents())
					}
					check := func(when string) {
						t.Helper()
						got, err := se.RunOps(ops)
						if err != nil {
							t.Fatalf("RunOps %s: %v", when, err)
						}
						for i, op := range ops {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Errorf("op %s %s differs from the rebuilt engine", op.Name(), when)
							}
						}
					}
					// Shards still serving from their primary fail over here.
					check("over dead primaries")
					// A compacted shard serves from its merged tail on a fresh
					// device, so no query reaches the dead primary; promote its
					// follower explicitly.
					for i, dev := range dead {
						if se.Shard(i).Device() == dev {
							if !compact {
								t.Errorf("shard %d served over a dead primary without failing over", i)
							}
							if err := se.failoverShard(i, nvm.ErrFailPoint); err != nil {
								t.Fatalf("failover shard %d: %v", i, err)
							}
						}
					}
					if n := se.FailoverCount(); n != k {
						t.Errorf("%d failovers, want one per shard (%d)", n, k)
					}
					check("after failover")
					checkOps(t, se.NewSession(), d, files, "session after failover")
				})
			}
		}
	}
}
