package main

import (
	"reflect"
	"strings"
	"testing"
)

func signatures(w workload, seed int64, client, n int) []string {
	q := newQuerySequence(w, seed, client)
	out := make([]string, n)
	for i := range out {
		out[i] = q.next().Signature()
	}
	return out
}

func TestQuerySequenceIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a := signatures(w, 7, 0, 50)
		if b := signatures(w, 7, 0, 50); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different sequences", w.name)
		}
		if w.randomK == nil {
			continue
		}
		if b := signatures(w, 8, 0, 50); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
		if b := signatures(w, 7, 1, 50); reflect.DeepEqual(a, b) {
			t.Errorf("%s: both clients send the same sequence", w.name)
		}
	}
}

// TestRandomMixMisses checks the property serve-miss is built on: its
// requests always run the fused batch with an explicit k and rarely repeat
// a signature.
func TestRandomMixMisses(t *testing.T) {
	w, err := findWorkload("serve-miss")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	sigs := append(signatures(w, 1, 0, 300), signatures(w, 1, 1, 300)...)
	for _, s := range sigs {
		if !strings.Contains(s, "rankedindex@k=") {
			t.Fatalf("signature %q has no explicit term-vector k", s)
		}
		seen[s] = true
	}
	if len(seen) < len(sigs)*9/10 {
		t.Errorf("%d distinct signatures in %d requests, want at least 90%%", len(seen), len(sigs))
	}
}

func TestGenCorpusIsSeeded(t *testing.T) {
	w, err := findWorkload("ingest")
	if err != nil {
		t.Fatal(err)
	}
	w.corpus.Files = 20
	a := genCorpus(w, 3, 16)
	if b := genCorpus(w, 3, 16); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different inputs")
	}
	b := genCorpus(w, 4, 16)
	if !reflect.DeepEqual(a.tokens, b.tokens) {
		t.Error("the base corpus depends on the seed")
	}
	if reflect.DeepEqual(a.stream, b.stream) {
		t.Error("seeds 3 and 4 gave the same append stream")
	}
	if len(a.tokens) != 20 || len(a.stream) != 16 {
		t.Fatalf("got %d base and %d stream documents, want 20 and 16", len(a.tokens), len(a.stream))
	}
	for _, doc := range a.tokens {
		for _, id := range doc {
			if int(id) >= len(a.words) {
				t.Fatalf("token %d outside the %d-word base dictionary", id, len(a.words))
			}
		}
	}
}

func TestGenCorpusFixesFileTokens(t *testing.T) {
	w, err := findWorkload("serve-hot")
	if err != nil {
		t.Fatal(err)
	}
	c := genCorpus(w, 1, 0)
	if len(c.tokens) != 1 || len(c.tokens[0]) != w.fileTokens {
		t.Errorf("serve-hot corpus has %d files, first of %d tokens; want 1 of %d", len(c.tokens), len(c.tokens[0]), w.fileTokens)
	}
}
