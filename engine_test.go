package ntadoc

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// tvDocs has documents with more distinct words than the default
// term-vector length, so a helper that silently applied the default would
// truncate them.
var tvDocs = []Document{
	{Name: "long", Text: "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu alpha beta alpha"},
	{Name: "short", Text: "beta gamma gamma delta"},
	{Name: "mid", Text: "one two three four five six seven eight nine ten eleven twelve thirteen one two"},
}

// TestTermVectorsLength checks the TermVectors helper's length contract on
// every engine shape: k = 0 returns every distinct word of each document,
// and k > 0 truncates to k entries — both matching the batch path.
func TestTermVectorsLength(t *testing.T) {
	plain := mustCompress(t, tvDocs)
	sharded, err := CompressSharded(tvDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	distinct := make([]int, len(tvDocs))
	for i, doc := range tvDocs {
		seen := map[string]bool{}
		for _, w := range strings.Fields(doc.Text) {
			seen[w] = true
		}
		distinct[i] = len(seen)
	}
	for _, tc := range []struct {
		name string
		a    *Archive
		opts Options
	}{
		{"dram", plain, Options{Medium: MediumDRAM}},
		{"nvm-k1", plain, Options{}},
		{"nvm-k3", sharded, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.a, tc.opts)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer e.Close()
			full, err := e.TermVectors(0)
			if err != nil {
				t.Fatalf("TermVectors(0): %v", err)
			}
			for i, vec := range full {
				if len(vec) != distinct[i] {
					t.Errorf("TermVectors(0) doc %d: %d entries, want all %d", i, len(vec), distinct[i])
				}
			}
			batch, err := e.RunSpec(NewBatchSpec([]Task{TaskTermVectors}, 1<<20))
			if err != nil {
				t.Fatalf("RunSpec: %v", err)
			}
			if !reflect.DeepEqual(full, batch.TermVectors) {
				t.Error("TermVectors(0) differs from the untruncated batch result")
			}

			top, err := e.TermVectors(3)
			if err != nil {
				t.Fatalf("TermVectors(3): %v", err)
			}
			for i, vec := range top {
				if want := min(3, distinct[i]); len(vec) != want {
					t.Errorf("TermVectors(3) doc %d: %d entries, want %d", i, len(vec), want)
				}
				if !reflect.DeepEqual(vec, full[i][:len(vec)]) {
					t.Errorf("TermVectors(3) doc %d is not a prefix of the full vector", i)
				}
			}
			batch, err = e.RunSpec(NewBatchSpec([]Task{TaskTermVectors}, 3))
			if err != nil {
				t.Fatalf("RunSpec k=3: %v", err)
			}
			if !reflect.DeepEqual(top, batch.TermVectors) {
				t.Error("TermVectors(3) differs from the k=3 batch result")
			}
		})
	}
}

// TestUnshardedReplicas checks that Options.Replicas applies to an unsharded
// archive, which is a one-shard engine: the primary's death is recovered
// through its follower with bit-identical results.
func TestUnshardedReplicas(t *testing.T) {
	a := mustCompress(t, shardDocs)
	ref, err := NewEngine(a, Options{})
	if err != nil {
		t.Fatalf("reference NewEngine: %v", err)
	}
	defer ref.Close()
	want, err := ref.RunBatch(AllTasks...)
	if err != nil {
		t.Fatalf("reference RunBatch: %v", err)
	}

	e, err := NewEngine(a, Options{Replicas: 1})
	if err != nil {
		t.Fatalf("replicated NewEngine: %v", err)
	}
	defer e.Close()
	if got := e.LiveFollowers(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("LiveFollowers = %v, want [1]", got)
	}
	dev := e.sh.Shard(0).Device()
	dev.FailFromPersistEvent(dev.PersistEvents())
	if err := e.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := e.FailoverCount(); got != 1 {
		t.Errorf("FailoverCount = %d, want 1", got)
	}
	if got := e.LiveFollowers(); got != nil {
		t.Errorf("LiveFollowers after promotion = %v, want nil", got)
	}
	got, err := e.RunBatch(AllTasks...)
	if err != nil {
		t.Fatalf("post-failover RunBatch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-failover batch differs from the reference")
	}
	sess, err := e.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	got, err = sess.RunSpec(context.Background(), NewBatchSpec(AllTasks, 0))
	if err != nil {
		t.Fatalf("post-failover session: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-failover session batch differs from the reference")
	}
}
