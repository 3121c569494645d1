package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// Online ingestion: durable live appends with a per-shard delta grammar.
//
// The durable truth of an appendable shard engine is its original pool plus
// a monotonic append log reserved below the initialization watermark (so
// traversal truncation can never reclaim it).  Each AppendAt writes one
// CRC-framed record carrying the batch's documents — tokens, names, and the
// novel word strings the batch interned — then commits it by advancing the
// region header's watermark through a pmem redo transaction.  The record
// body is flushed and drained before the header commit, so a crash recovers
// to "batch fully visible" or "batch absent", never a torn batch.
//
// Serving is layered over that durable log in DRAM: a live sequitur
// DeltaBuilder extends a delta grammar one document at a time, and after
// each commit the builder is snapshotted into a small engine over a fresh
// device, published as a refcounted deltaView.  The sharded coordinator pins
// every shard's view, runs the base and delta traversals independently, and
// merges the results through analytics.MergeUnits — bit-identical to
// rebuilding the engine from the concatenated corpus, because every
// analytics result depends only on the per-file token streams.
//
// Compaction is a serving-only promotion: the base grammar and the delta
// snapshot are merged (cfg.MergeDelta) into a new engine that becomes the
// serving tail; the durable log is never rewritten (it is monotonic — when
// the region fills, AppendAt returns ErrIngestFull).  A crash at any point
// during compaction therefore recovers the pre-compaction state trivially:
// recovery replays the log into a fresh delta over the original base.

// ingestHeaderSize is the append-log region header: committed record bytes,
// batch count, document count, vocabulary size, and the region capacity.
const ingestHeaderSize = 64

// Region-header field offsets (region-relative).
const (
	ingOffCommitted = 0  // u64 committed record bytes after the header
	ingOffBatches   = 8  // u64 committed batches
	ingOffDocs      = 16 // u64 committed appended documents
	ingOffVocab     = 24 // u64 vocabulary size after the last committed batch
	ingOffCap       = 32 // u64 region capacity after the header
)

// AppendDoc is one document of an append batch: its display name and its
// token IDs (already interned by the caller).
type AppendDoc struct {
	Name   string
	Tokens []uint32
}

// IngestBatch describes one committed append batch, as recovered from (or
// written to) the durable log.
type IngestBatch struct {
	GlobalBase uint32   // global index of the batch's first document
	Vocab      uint32   // vocabulary size after the batch
	Novel      []string // words first interned by this batch, in ID order
	Docs       []AppendDoc
}

// IngestStats is the observable ingestion state of an engine.
type IngestStats struct {
	Batches       uint64 // committed append batches
	Docs          uint64 // appended documents (including compacted ones)
	LogBytes      int64  // committed append-log bytes
	LogCap        int64  // append-log capacity
	DeltaDocs     int    // documents in the live (uncompacted) delta
	DeltaRules    int    // rules in the live delta grammar
	DeltaReused   int    // delta rules whose fingerprint the base already interned
	DeltaSymbols  int64  // live delta grammar body symbols
	CompactedDocs uint32 // appended documents folded into the serving base
	Compactions   uint64
}

// deltaView is one published snapshot of the delta serving engine, pinned by
// in-flight queries.  The engine behind it lives on its own fresh device, so
// it stays queryable even across a base-device failover.
type deltaView struct {
	st   *ingestState
	eng  *Engine // nil when the delta is empty
	docs uint32  // appended documents this view covers

	refs    int  // guarded by st.viewMu
	retired bool // guarded by st.viewMu
}

// release drops one pin; the last release of a retired view closes its
// engine.
func (v *deltaView) release() {
	if v == nil {
		return
	}
	v.st.viewMu.Lock()
	v.refs--
	closeNow := v.retired && v.refs == 0 && v.eng != nil
	v.st.viewMu.Unlock()
	if closeNow {
		_ = v.eng.Close()
	}
}

// ingestState is the per-engine ingestion state.  The root engine of a
// serving chain owns the durable log half (acc); engines promoted by
// compaction carry a serving-only state (no log) and receive their appends
// through the root.
type ingestState struct {
	e *Engine

	// Durable log half; acc.Size() == 0 on serving-only states.
	acc nvm.Accessor
	cap int64

	// mu serializes appends, compaction control, and recovery replay.
	mu        sync.Mutex
	committed int64  // guarded by mu: committed record bytes
	batches   uint64 // guarded by mu: committed batches
	docs      uint64 // guarded by mu: committed appended documents
	vocab     uint32 // guarded by mu: vocabulary size after the last batch
	infos     []IngestBatch
	// compacting rejects appends while a compaction merge is building; it is
	// read and written only under mu, but the merge itself runs unlocked.
	compacting bool

	// Serving half.
	db          *sequitur.DeltaBuilder // guarded by mu
	baseG       *cfg.Grammar           // nil on recovered engines
	compactions uint64                 // guarded by mu

	viewMu   sync.Mutex
	view     *deltaView // guarded by viewMu
	promoted *Engine    // guarded by viewMu: compacted serving tail
	retired  []*Engine  // guarded by viewMu: previous tails, closed on close

	epoch atomic.Uint64 // committed batches + compactions (corpus epoch)
}

// newIngestState builds the root (durable-log-owning) state during engine
// initialization.  g is the base grammar; its rule fingerprints seed the
// delta builder's reuse accounting.
func newIngestState(e *Engine, acc nvm.Accessor, g *cfg.Grammar) *ingestState {
	st := &ingestState{e: e, acc: acc, cap: acc.Size() - ingestHeaderSize, baseG: g, vocab: e.numWords}
	acc.PutUint64(ingOffVocab, uint64(st.vocab))
	acc.PutUint64(ingOffCap, uint64(st.cap))
	db, err := sequitur.NewDeltaBuilder(e.numWords, g)
	if err != nil {
		// Fingerprinting a validated grammar cannot fail; fall back to a
		// builder without reuse accounting rather than losing ingestion.
		db, _ = sequitur.NewDeltaBuilder(e.numWords, nil)
	}
	st.db = db
	// Appends interleave with query sessions; shared mode serializes the
	// device's bookkeeping under concurrency.
	e.dev.Share()
	return st
}

// newServingIngest builds the serving-only state compaction attaches to a
// promoted tail engine.
func newServingIngest(e *Engine, g *cfg.Grammar) *ingestState {
	st := &ingestState{e: e, baseG: g, vocab: e.numWords}
	st.db, _ = sequitur.NewDeltaBuilder(e.numWords, g)
	e.dev.Share()
	return st
}

// close retires the serving chain: the current view's engine, every retired
// tail, and the promoted tail (recursively).
func (st *ingestState) close() {
	st.viewMu.Lock()
	v, p, retired := st.view, st.promoted, st.retired
	st.view, st.promoted, st.retired = nil, nil, nil
	st.viewMu.Unlock()
	if v != nil && v.eng != nil {
		_ = v.eng.Close()
	}
	for _, t := range retired {
		_ = t.Close() // closes the tail's own ingest state first
	}
	if p != nil {
		_ = p.Close()
	}
}

// tail returns the serving engine at the end of the promotion chain: the
// engine itself before any compaction, the latest compacted engine after.
func (st *ingestState) tail() *Engine {
	st.viewMu.Lock()
	p := st.promoted
	st.viewMu.Unlock()
	if p == nil {
		return st.e
	}
	if p.ingest != nil {
		return p.ingest.tail()
	}
	return p
}

// pinServing atomically resolves the serving tail and pins its delta view
// (nil when the tail has no appended documents).  The compaction swap
// installs the promoted engine and retires the view in one viewMu critical
// section, so a reader that finds a freshly promoted tail simply follows the
// chain — it can never observe "view gone, promotion not yet visible" and
// drop delta documents from a result.  The caller must release the view.
func (st *ingestState) pinServing() (*Engine, *deltaView) {
	for {
		t := st.tail()
		ti := t.ingest
		if ti == nil {
			return t, nil
		}
		ti.viewMu.Lock()
		promoted := ti.promoted
		v := ti.view
		if promoted == nil && v != nil {
			//ntalint:ignore guardcheck v.st == ti: the pin is taken under ti.viewMu, which is the view's own guard.
			v.refs++
		}
		ti.viewMu.Unlock()
		if promoted != nil {
			continue
		}
		return t, v
	}
}

// publishView swaps the serving view; the previous view is retired and
// closed once its last pin releases.
func (st *ingestState) publishView(eng *Engine, docs uint32) {
	nv := &deltaView{st: st, eng: eng, docs: docs}
	st.viewMu.Lock()
	old := st.view
	st.view = nv
	if old != nil {
		//ntalint:ignore guardcheck old.st == st: retired under st.viewMu, which is the view's own guard.
		old.retired = true
	}
	//ntalint:ignore guardcheck old.st == st: refs read under st.viewMu, which is the view's own guard.
	closeOld := old != nil && old.refs == 0 && old.eng != nil
	st.viewMu.Unlock()
	if closeOld {
		_ = old.eng.Close()
	}
}

// deltaOptions derives the configuration for the small serving engines built
// over delta snapshots and compacted merges: same medium, cost model, and
// analytics configuration as the base, default persistence (these engines
// are rebuilt from the durable log, never recovered in place).
func (e *Engine) deltaOptions() Options {
	return Options{
		Kind:      e.opts.Kind,
		Model:     e.opts.Model,
		Strategy:  e.opts.Strategy,
		Counters:  e.opts.Counters,
		Sequences: e.opts.Sequences,
	}
}

// rebuildDeltaView snapshots the builder (caller holds mu) and publishes a
// fresh serving engine over it.
func (st *ingestState) rebuildDeltaView() error {
	g := st.db.Grammar()
	if g == nil {
		st.publishView(nil, 0)
		return nil
	}
	eng, err := New(g, st.e.d, st.e.deltaOptions())
	if err != nil {
		return fmt.Errorf("core: build delta engine: %w", err)
	}
	st.publishView(eng, g.NumFiles)
	return nil
}

// encodeAppendRecord frames one batch for the durable log.
func encodeAppendRecord(globalBase, vocabAfter uint32, novel []string, docs []AppendDoc) []byte {
	n := 12
	for _, w := range novel {
		n += 4 + len(w)
	}
	n += 4
	for _, d := range docs {
		n += 4 + len(d.Name) + 4 + 4*len(d.Tokens)
	}
	buf := make([]byte, 8, 8+n)
	u32 := func(v uint32) {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	u32(globalBase)
	u32(vocabAfter)
	u32(uint32(len(novel)))
	for _, w := range novel {
		u32(uint32(len(w)))
		buf = append(buf, w...)
	}
	u32(uint32(len(docs)))
	for _, d := range docs {
		u32(uint32(len(d.Name)))
		buf = append(buf, d.Name...)
		u32(uint32(len(d.Tokens)))
		for _, t := range d.Tokens {
			u32(t)
		}
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// decodeAppendRecord parses one framed record; rec starts at the length
// word.  Returns the batch and the total framed size consumed.
func decodeAppendRecord(rec []byte) (IngestBatch, int64, error) {
	var b IngestBatch
	if len(rec) < 8 {
		return b, 0, fmt.Errorf("core: append record truncated (%d bytes)", len(rec))
	}
	ln := binary.LittleEndian.Uint32(rec[0:4])
	crc := binary.LittleEndian.Uint32(rec[4:8])
	if int(ln) > len(rec)-8 {
		return b, 0, fmt.Errorf("core: append record length %d beyond committed log", ln)
	}
	p := rec[8 : 8+ln]
	if crc32.ChecksumIEEE(p) != crc {
		return b, 0, fmt.Errorf("core: append record checksum mismatch")
	}
	pos := 0
	u32 := func() (uint32, error) {
		if pos+4 > len(p) {
			return 0, fmt.Errorf("core: append record underrun at %d", pos)
		}
		v := binary.LittleEndian.Uint32(p[pos : pos+4])
		pos += 4
		return v, nil
	}
	str := func() (string, error) {
		n, err := u32()
		if err != nil {
			return "", err
		}
		if pos+int(n) > len(p) {
			return "", fmt.Errorf("core: append record string underrun at %d", pos)
		}
		s := string(p[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	var err error
	var base, vocab, nNovel, nDocs uint32
	if base, err = u32(); err != nil {
		return b, 0, err
	}
	if vocab, err = u32(); err != nil {
		return b, 0, err
	}
	if nNovel, err = u32(); err != nil {
		return b, 0, err
	}
	b.GlobalBase, b.Vocab = base, vocab
	b.Novel = make([]string, 0, nNovel)
	for i := uint32(0); i < nNovel; i++ {
		w, err := str()
		if err != nil {
			return b, 0, err
		}
		b.Novel = append(b.Novel, w)
	}
	if nDocs, err = u32(); err != nil {
		return b, 0, err
	}
	b.Docs = make([]AppendDoc, 0, nDocs)
	for i := uint32(0); i < nDocs; i++ {
		name, err := str()
		if err != nil {
			return b, 0, err
		}
		nTok, err := u32()
		if err != nil {
			return b, 0, err
		}
		if pos+4*int(nTok) > len(p) {
			return b, 0, fmt.Errorf("core: append record token underrun at %d", pos)
		}
		toks := make([]uint32, nTok)
		for j := range toks {
			toks[j] = binary.LittleEndian.Uint32(p[pos : pos+4])
			pos += 4
		}
		b.Docs = append(b.Docs, AppendDoc{Name: name, Tokens: toks})
	}
	return b, int64(8 + ln), nil
}

// AppendAt appends a batch of documents to the engine's durable append log
// and serving delta: the record is made durable (body first, then the
// watermark commit), the delta grammar is extended, and a fresh delta view
// is published.  vocab is the vocabulary size after interning the batch;
// novel lists the words the batch interned, in ID order (vocab - len(novel)
// ... vocab - 1).  globalBase is the global index of the batch's first
// document: the sharded coordinator routes whole batches to one shard and
// numbers documents globally across shards.  Appends are serialized against
// each other but never block in-flight query sessions, which keep reading
// the previously published view.
func (e *Engine) AppendAt(docs []AppendDoc, vocab uint32, novel []string, globalBase uint32) error {
	st := e.ingest
	if st == nil {
		return ErrNoIngest
	}
	if len(docs) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.compacting {
		return ErrCompacting
	}
	// The batch's pre-interning vocabulary (vocab - len(novel)) must cover
	// this engine's last committed vocabulary.  Equality is deliberately not
	// required: inside a sharded set the shared dictionary grows across all
	// shards, so a shard's recorded vocabulary lags the global one.
	if vocab < st.vocab || uint64(len(novel)) > uint64(vocab) ||
		vocab-uint32(len(novel)) < st.vocab {
		return errEngine("append", fmt.Errorf("vocabulary %d with %d novel words does not extend %d",
			vocab, len(novel), st.vocab))
	}
	for _, d := range docs {
		for _, t := range d.Tokens {
			if t >= vocab {
				return errEngine("append", fmt.Errorf("token %d beyond vocabulary %d", t, vocab))
			}
		}
	}
	rec := encodeAppendRecord(globalBase, vocab, novel, docs)
	if st.committed+int64(len(rec)) > st.cap {
		return ErrIngestFull
	}
	// Durability protocol: write and drain the record body, then move the
	// committed watermark (with the batch/doc/vocab mirrors) in one redo
	// transaction.  The body is invisible until the watermark covers it, so
	// a crash anywhere in between leaves the previous committed state.
	off := ingestHeaderSize + st.committed
	st.acc.WriteBytes(off, rec)
	if err := st.acc.Flush(off, int64(len(rec))); err != nil {
		return errEngine("append", err)
	}
	if err := e.dev.Drain(); err != nil {
		return errEngine("append", err)
	}
	tx, err := e.pool.Begin()
	if err != nil {
		return errEngine("append", err)
	}
	regionBase := st.acc.Base()
	if err := tx.WriteUint64(regionBase+ingOffCommitted, uint64(st.committed+int64(len(rec)))); err != nil {
		return errEngine("append", err)
	}
	if err := tx.WriteUint64(regionBase+ingOffBatches, st.batches+1); err != nil {
		return errEngine("append", err)
	}
	if err := tx.WriteUint64(regionBase+ingOffDocs, st.docs+uint64(len(docs))); err != nil {
		return errEngine("append", err)
	}
	if err := tx.WriteUint64(regionBase+ingOffVocab, uint64(vocab)); err != nil {
		return errEngine("append", err)
	}
	if err := tx.Commit(); err != nil {
		return errEngine("append", err)
	}
	st.committed += int64(len(rec))
	st.batches++
	st.docs += uint64(len(docs))
	st.vocab = vocab
	st.infos = append(st.infos, IngestBatch{GlobalBase: globalBase, Vocab: vocab,
		Novel: append([]string(nil), novel...), Docs: docs})

	// Serving: extend the delta at the end of the promotion chain (after a
	// compaction, new documents accumulate on the compacted tail's delta).
	ts := st.tail().ingest
	if err := st.extendServing(ts, docs, vocab); err != nil {
		return err
	}
	st.epoch.Add(1)
	return nil
}

// extendServing appends the batch's documents to the serving state's delta
// builder and publishes the new view.  The caller holds the root's mu; the
// serving state's builder is only ever mutated through the root, so no
// further lock is needed.
func (st *ingestState) extendServing(ts *ingestState, docs []AppendDoc, vocab uint32) error {
	for _, d := range docs {
		if err := ts.db.AppendDoc(d.Tokens, vocab); err != nil {
			return errEngine("append", err)
		}
	}
	ts.vocab = vocab
	return ts.rebuildDeltaView()
}

// compact merges the serving tail's delta grammar into its base and promotes
// the merged engine as the new serving tail.  The durable log is untouched
// (recovery always replays the full delta over the original base), so a
// crash at any point during compaction is harmless.  Appends arriving while
// the merge builds are rejected with ErrCompacting; queries are never
// blocked — they keep pinning the pre-compaction view until the swap.
func (st *ingestState) compact() error {
	st.mu.Lock()
	if st.compacting {
		st.mu.Unlock()
		return ErrCompacting
	}
	tailEng := st.tail()
	ts := tailEng.ingest
	if ts.baseG == nil {
		st.mu.Unlock()
		return ErrNoBaseGrammar
	}
	//ntalint:ignore guardcheck delta builders are mutated only under the root's mu, held here; ts is reached only through the promotion chain.
	dg := ts.db.Grammar()
	if dg == nil {
		st.mu.Unlock()
		return nil // nothing to compact
	}
	st.compacting = true
	st.mu.Unlock()

	merged, err := cfg.MergeDelta(ts.baseG, dg)
	var ne *Engine
	if err == nil {
		ne, err = New(merged, st.e.d, st.e.deltaOptions())
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.compacting = false
	if err != nil {
		return errEngine("compact", err)
	}
	ne.ingest = newServingIngest(ne, merged)
	// Swap: the merged engine becomes the serving tail; the old tail's view
	// is retired (appends were blocked, so the snapshot is current) and the
	// old tail itself is kept alive for in-flight pins until close.
	ts.viewMu.Lock()
	ts.promoted = ne
	old := ts.view
	ts.view = nil
	if old != nil {
		//ntalint:ignore guardcheck old.st == ts: retired under ts.viewMu, which is the view's own guard.
		old.retired = true
	}
	//ntalint:ignore guardcheck old.st == ts: refs read under ts.viewMu, which is the view's own guard.
	closeOld := old != nil && old.refs == 0 && old.eng != nil
	ts.viewMu.Unlock()
	if closeOld {
		_ = old.eng.Close()
	}
	if ts != st {
		// Intermediate tails stay reachable through the promotion chain; the
		// root additionally tracks them so close() releases every device.
		st.viewMu.Lock()
		st.retired = append(st.retired, tailEng)
		st.viewMu.Unlock()
	}
	st.compactions++
	st.epoch.Add(1)
	return nil
}

// CorpusEpoch returns the engine's corpus epoch: it advances on every
// committed append and every compaction, and serving layers key caches by
// it.  Zero for engines without ingestion.
func (e *Engine) CorpusEpoch() uint64 {
	if e.ingest == nil {
		return 0
	}
	return e.ingest.epoch.Load()
}

// IngestBatches returns the committed append batches in commit order — the
// durable history recovery replays, exposed for coordinators and tooling.
func (e *Engine) IngestBatches() []IngestBatch {
	if e.ingest == nil {
		return nil
	}
	e.ingest.mu.Lock()
	defer e.ingest.mu.Unlock()
	return append([]IngestBatch(nil), e.ingest.infos...)
}

// IngestStats reports the engine's ingestion state; zero value when the
// engine was built without ingestion.
func (e *Engine) IngestStats() IngestStats {
	st := e.ingest
	if st == nil {
		return IngestStats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tailEng := st.tail()
	out := IngestStats{
		Batches:       st.batches,
		Docs:          st.docs,
		LogBytes:      st.committed,
		LogCap:        st.cap,
		CompactedDocs: tailEng.numFiles - st.e.numFiles,
		Compactions:   st.compactions,
	}
	//ntalint:ignore guardcheck delta builders are mutated only under the root's mu, held here; the tail is reached only through the promotion chain.
	if ds, err := tailEng.ingest.db.Stats(); err == nil {
		out.DeltaDocs = ds.Docs
		out.DeltaRules = ds.Rules
		out.DeltaReused = ds.Reused
		out.DeltaSymbols = ds.Symbols
	}
	return out
}

// runDeltaOps executes ops against a pinned delta view through a transient
// query session (the view's engine is read-shared by concurrent queries).
func (v *deltaView) runDeltaOps(ops []analytics.Op) ([]any, error) {
	sess := v.eng.NewSession()
	return sess.runOps(nil, ops)
}

// recoverIngest reattaches the append-log region after Reopen and replays
// every committed record: the batch history is decoded, the delta builder is
// rebuilt by replaying the documents (sequitur inference is deterministic,
// so the delta grammar is bit-identical to the pre-crash one), and the
// serving view is republished.  The base grammar is gone, so compaction is
// unavailable until the corpus is recompressed (ErrNoBaseGrammar).
func (e *Engine) recoverIngest(regionOff int64) error {
	hdr := e.pool.AccessorAt(regionOff, ingestHeaderSize)
	capBytes := int64(hdr.Uint64(ingOffCap))
	if capBytes <= 0 || regionOff+ingestHeaderSize+capBytes > e.pool.Size() {
		return fmt.Errorf("%w: append-log region [%d, +%d) outside pool",
			ErrNeedsReload, regionOff, ingestHeaderSize+capBytes)
	}
	acc := e.pool.AccessorAt(regionOff, ingestHeaderSize+capBytes)
	committed := int64(hdr.Uint64(ingOffCommitted))
	batches := hdr.Uint64(ingOffBatches)
	docs := hdr.Uint64(ingOffDocs)
	vocab := uint32(hdr.Uint64(ingOffVocab))
	if committed < 0 || committed > capBytes {
		return fmt.Errorf("%w: append-log watermark %d beyond capacity %d",
			ErrNeedsReload, committed, capBytes)
	}
	st := &ingestState{e: e, acc: acc, cap: capBytes}
	st.db, _ = sequitur.NewDeltaBuilder(e.numWords, nil)
	st.vocab = e.numWords
	e.dev.Share()

	raw := make([]byte, committed)
	acc.ReadBytes(ingestHeaderSize, raw)
	var pos int64
	for pos < committed {
		b, n, err := decodeAppendRecord(raw[pos:])
		if err != nil {
			return fmt.Errorf("%w: append log at %d: %v", ErrNeedsReload, pos, err)
		}
		for _, d := range b.Docs {
			if err := st.db.AppendDoc(d.Tokens, b.Vocab); err != nil {
				return fmt.Errorf("%w: replay append: %v", ErrNeedsReload, err)
			}
		}
		st.vocab = b.Vocab
		st.infos = append(st.infos, b)
		pos += n
	}
	if uint64(len(st.infos)) != batches || st.db.Docs() != uint32(docs) || st.vocab != vocab {
		return fmt.Errorf("%w: append log replay mismatch (%d/%d batches, %d/%d docs)",
			ErrNeedsReload, len(st.infos), batches, st.db.Docs(), docs)
	}
	st.committed, st.batches, st.docs = committed, batches, docs
	st.epoch.Store(batches)
	e.ingest = st
	return st.rebuildDeltaView()
}

// restoreVocabulary re-interns the novel words of the given batches (already
// sorted by GlobalBase — global append order) into d, verifying each word
// lands on the ID the durable record assigned.  A dictionary that already
// contains the words (a reopen with the archive's dictionary) verifies
// silently; a fresh dictionary is extended deterministically.
func restoreVocabulary(d *dict.Dictionary, batches []IngestBatch) error {
	for _, b := range batches {
		next := b.Vocab - uint32(len(b.Novel))
		for k, w := range b.Novel {
			want := next + uint32(k)
			if got := d.Intern(w); got != want {
				return fmt.Errorf("core: recovered word %q interned at %d, log recorded %d", w, got, want)
			}
		}
	}
	return nil
}
