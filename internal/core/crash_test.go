package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// Crash-injection tests: interrupt persistence at adversarial points using
// the device fail point and raw crashes, then verify the §IV-E recovery
// contract.

func TestCrashDuringInitRequiresReload(t *testing.T) {
	// A crash before the initialization checkpoint leaves no usable pool.
	_, d, g := corpus(t, 50, 2, 150, 25)
	e := newEngine(t, g, d, Options{})
	// Forge a pre-checkpoint state: reset the phase by crashing a device
	// whose pool was never checkpointed.  Build a raw device with a pool
	// but no phases.
	dev := nvm.New(nvm.KindNVM, e.dev.Size())
	p, err := pmemCreate(dev)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_ = p
	if _, _, err := Reopen(dev, d, Options{}); !errors.Is(err, ErrNeedsReload) {
		t.Errorf("Reopen on phase-0 pool: %v", err)
	}
}

func TestFlushFailureDuringCheckpointSurfaces(t *testing.T) {
	files, d, g := corpus(t, 51, 2, 150, 25)
	e := newEngine(t, g, d, Options{})
	e.dev.FailAfterFlushes(0)
	if _, err := analytics.RunAs[map[uint32]uint64](e, analytics.WordCountOp{}); err == nil {
		t.Fatal("expected checkpoint flush failure to surface")
	}
	e.dev.DisarmFailPoint()
	// The engine remains usable once the device recovers.
	wc, err := analytics.RunAs[map[uint32]uint64](e, analytics.WordCountOp{})
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("word count mismatch after transient failure")
	}
}

func TestOpLevelFlushFailureSurfaces(t *testing.T) {
	_, d, g := corpus(t, 52, 2, 150, 25)
	e := newEngine(t, g, d, Options{Persistence: OpLevel})
	e.dev.FailAfterFlushes(3)
	if _, err := analytics.RunAs[map[uint32]uint64](e, analytics.WordCountOp{}); err == nil {
		t.Fatal("expected op-log flush failure to surface")
	}
	e.dev.DisarmFailPoint()
	if _, err := analytics.RunAs[map[uint32]uint64](e, analytics.WordCountOp{}); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	files, d, g := corpus(t, 53, 3, 120, 20)
	e := newEngine(t, g, d, Options{Sequences: true})
	want := analytics.RefWordCount(files)

	dev := e.dev
	for round := 0; round < 3; round++ {
		re, _, err := Reopen(dev, d, Options{Sequences: true})
		if err != nil {
			t.Fatalf("round %d: Reopen: %v", round, err)
		}
		wc, err := analytics.RunAs[map[uint32]uint64](re, analytics.WordCountOp{})
		if err != nil {
			t.Fatalf("round %d: WordCount: %v", round, err)
		}
		if !reflect.DeepEqual(wc, want) {
			t.Fatalf("round %d: mismatch", round)
		}
		if err := dev.Crash(); err != nil {
			t.Fatalf("round %d: Crash: %v", round, err)
		}
	}
}

func TestOpLevelCrashMidLogCompaction(t *testing.T) {
	// A tiny log forces many compactions; crash between them and verify
	// replay equals the durable prefix semantics (counts from compacted
	// tables plus the tail log, applied to a consistent state).
	files, d, g := corpus(t, 54, 2, 250, 25)
	opts := Options{Persistence: OpLevel, OpLogCap: 2048}
	e := newEngine(t, g, d, opts)

	e.beginTraversal()
	counter, off, err := e.newCounter(e.globalBound(), int64(e.numWords))
	if err != nil {
		t.Fatalf("newCounter: %v", err)
	}
	if err := e.topDownGlobal(counter, off); err != nil {
		t.Fatalf("topDownGlobal: %v", err)
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(e.dev, d, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	counts, err := re.ReplayedCounts()
	if err != nil {
		t.Fatalf("ReplayedCounts: %v", err)
	}
	// The traversal completed every mutation before the crash (the final
	// commit fence ran inside topDownGlobal's last opCommit), so replayed
	// state must equal the full reference.
	if !reflect.DeepEqual(counts, analytics.RefWordCount(files)) {
		t.Errorf("replayed counts diverge (replayed %d records)", info.Replayed)
	}
}

func TestSeqLocalTablesSurviveCrash(t *testing.T) {
	files, d, g := corpus(t, 55, 3, 200, 15)
	e := newEngine(t, g, d, Options{Sequences: true})
	want, err := analytics.RunAs[map[analytics.Seq]uint64](e, analytics.SequenceCountOp{})
	if err != nil {
		t.Fatalf("SequenceCount: %v", err)
	}
	if !reflect.DeepEqual(want, analytics.RefSequenceCount(files)) {
		t.Fatal("pre-crash sequence counts wrong")
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, _, err := Reopen(e.dev, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	got, err := analytics.RunAs[map[analytics.Seq][]analytics.DocFreq](re, analytics.RankedInvertedIndexOp{})
	if err != nil {
		t.Fatalf("recovered RankedInvertedIndex: %v", err)
	}
	if !reflect.DeepEqual(got, analytics.RefRankedInvertedIndex(files)) {
		t.Error("recovered ranked inverted index mismatch")
	}
}

func TestPerOpCommitMatchesReference(t *testing.T) {
	files, d, g := corpus(t, 56, 2, 150, 20)
	e := newEngine(t, g, d, Options{Persistence: OpLevel, PerOpCommit: true})
	wc, err := analytics.RunAs[map[uint32]uint64](e, analytics.WordCountOp{})
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("per-op-commit word count mismatch")
	}
}

func TestPerOpCommitCostsMore(t *testing.T) {
	_, d, g := corpus(t, 57, 2, 200, 20)
	perRule := newEngine(t, g, d, Options{Persistence: OpLevel})
	if _, err := analytics.RunAs[map[uint32]uint64](perRule, analytics.WordCountOp{}); err != nil {
		t.Fatal(err)
	}
	perOp := newEngine(t, g, d, Options{Persistence: OpLevel, PerOpCommit: true})
	if _, err := analytics.RunAs[map[uint32]uint64](perOp, analytics.WordCountOp{}); err != nil {
		t.Fatal(err)
	}
	a := perRule.LastTraversalSpan().Total()
	b := perOp.LastTraversalSpan().Total()
	if b <= a {
		t.Errorf("per-mutation commits (%v) not costlier than per-rule (%v)", b, a)
	}
}

// pmemCreate builds a bare pool on dev (no engine phases), for recovery
// tests that need a pre-initialization state.
func pmemCreate(dev *nvm.SimDevice) (interface{}, error) {
	p, err := pmem.Create(dev, pmem.Options{LogCap: 4096})
	return p, err
}

func TestNaivePortCostsMoreThanNTADOC(t *testing.T) {
	// The §III-B ordering: naive PMDK port >> N-TADOC on the same medium.
	_, d, g := corpus(t, 58, 2, 300, 25)
	tuned := newEngine(t, g, d, Options{})
	if _, err := analytics.RunAs[map[uint32]uint64](tuned, analytics.WordCountOp{}); err != nil {
		t.Fatal(err)
	}
	naive := newEngine(t, g, d, Options{
		NoPruning: true, NoBounds: true, Scatter: true,
		Persistence: OpLevel, PerOpCommit: true,
	})
	if _, err := analytics.RunAs[map[uint32]uint64](naive, analytics.WordCountOp{}); err != nil {
		t.Fatal(err)
	}
	a := tuned.InitSpan().Total() + tuned.LastTraversalSpan().Total()
	b := naive.InitSpan().Total() + naive.LastTraversalSpan().Total()
	if b < 2*a {
		t.Errorf("naive port (%v) not clearly costlier than N-TADOC (%v)", b, a)
	}
}

func TestPoolEstimateCoversActualUse(t *testing.T) {
	for _, seq := range []bool{false, true} {
		_, d, g := corpus(t, 59, 4, 300, 40)
		opts := Options{Sequences: seq}
		est, err := PoolEstimate(g, opts)
		if err != nil {
			t.Fatalf("PoolEstimate: %v", err)
		}
		e := newEngine(t, g, d, opts)
		// Run the heaviest tasks; the pool must never run out.
		if _, err := analytics.RunAs[[][]analytics.WordFreq](e, analytics.TermVectorsOp{K: 5}); err != nil {
			t.Fatalf("seq=%v TermVector: %v", seq, err)
		}
		if seq {
			if _, err := analytics.RunAs[map[analytics.Seq][]analytics.DocFreq](e, analytics.RankedInvertedIndexOp{}); err != nil {
				t.Fatalf("RankedInvertedIndex: %v", err)
			}
		}
		if e.NVMBytes() > est+est/2 {
			t.Errorf("seq=%v: used %d exceeds estimate %d + slack", seq, e.NVMBytes(), est)
		}
	}
}

func TestNoDoubleReplayAfterCommittedTraversal(t *testing.T) {
	// Regression: a completed traversal checkpoints its tables durably and
	// advances the pool epoch; the op log's records are then superseded.
	// Recovery must NOT replay them on top of the checkpointed tables
	// (which would double every count).
	files, d, g := corpus(t, 62, 2, 200, 25)
	opts := Options{Persistence: OpLevel}
	e := newEngine(t, g, d, opts)
	want, err := analytics.RunAs[map[uint32]uint64](e, analytics.WordCountOp{}) // completes, checkpoints
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, analytics.RefWordCount(files)) {
		t.Fatal("pre-crash counts wrong")
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(e.dev, d, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if info.Replayed != 0 {
		t.Errorf("replayed %d superseded records", info.Replayed)
	}
	counts, task, ok := re.CommittedCounts()
	if !ok || task != analytics.WordCount {
		t.Fatalf("committed counts missing (ok=%v task=%v)", ok, task)
	}
	if !reflect.DeepEqual(counts, want) {
		t.Error("recovered counts diverge from committed run")
	}
}
