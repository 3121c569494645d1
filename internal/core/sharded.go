package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// ShardedEngine is the scatter-gather coordinator over K independent shard
// engines.  Each shard owns a complete engine — its own grammar, simulated
// device, pmem pool, and (in operation-level mode) op log — making every
// shard an independent persistence and recovery domain.  Since the shard
// boundary is whole files, each shard's traversal is a complete run of the
// operation kernel over its slice of the corpus; the coordinator runs the
// shards in parallel goroutines and merges their results through the
// analytics.MergingFold capability (global ops combine counters key-wise;
// per-file ops concatenate with document indices offset by the shard base).
//
// With Options.Replication, each shard additionally ships its drained
// commit stream to follower devices, and the scatter-gather path fails over
// when a primary dies mid-batch: the lane promotes a follower, recovers it
// under the single-engine recovery contract (Reopen), re-dispatches the
// shard's ops, and the merged result stays bit-identical to the healthy run.
//
// Modeled time follows the parallel execution: a phase's Total is the
// critical path (the slowest shard) plus the coordinator's serial merge,
// while device statistics sum across shards (see metrics.MergeParallel).
type ShardedEngine struct {
	shards []*Engine
	bases  []uint32 // global index of each shard's first document
	nfiles uint32
	d      *dict.Dictionary

	// Failover state: the retained shard grammars (reload-path rebuilds;
	// nil after ReopenSharded, which has no grammars), the sanitized base
	// options recovery reuses, and one replicator per replicated shard.
	gs   []*cfg.Grammar
	opts Options
	reps []*replicator // guarded by failMu

	// Replica-read state: lazily recovered read engines over follower
	// images, one query session each.
	replicaReads bool
	replicas     []*Engine
	replicaSess  []*Session

	meter    metrics.Meter // coordinator-side merge CPU
	initSpan metrics.Span

	// failMu serializes failovers and guards the recovery bookkeeping; the
	// shards slice itself needs no lock — element i is only touched by the
	// lane that owns shard i, and the coordinator joins all lanes before
	// reading it.
	failMu        sync.Mutex
	failovers     int            // guarded by failMu
	failoverSpans []metrics.Span // guarded by failMu
	retiredEng    []*Engine      // guarded by failMu
	retiredReps   []*replicator  // guarded by failMu

	mu        sync.Mutex
	lastTrav  metrics.Span // guarded by mu
	lastTails []int64      // guarded by mu

	// Online-ingestion coordination: appends route whole batches to the
	// least-loaded shard's durable append log, and documents are numbered
	// globally in append order — so a shard's delta documents interleave
	// globally with other shards', and the gather path merges them through
	// per-unit document maps (analytics.MergeUnits).
	ingestMu  sync.Mutex
	deltaMaps [][]uint32 // guarded by ingestMu: global doc IDs per shard, append order
	appended  uint32     // guarded by ingestMu: total appended documents
}

// ErrShardMismatch reports a sharded device set whose pool stamps do not
// match the positions they were assembled in.
var ErrShardMismatch = errors.New("core: pool shard stamp does not match its position")

// ErrShardFailed reports which shard of a scatter-gather failed and why:
// the Cause chain reaches the underlying device error (nvm.ErrFailPoint for
// an injected failure), and for an exhausted failover it also carries the
// recovery error.  Callers unwrap it with errors.As to learn the shard.
type ErrShardFailed struct {
	Shard int
	Cause error
}

// Error implements error.
func (e *ErrShardFailed) Error() string {
	return fmt.Sprintf("core: shard %d failed: %v", e.Shard, e.Cause)
}

// Unwrap exposes the cause chain to errors.Is/As.
func (e *ErrShardFailed) Unwrap() error { return e.Cause }

// wrapShard types an error with its shard index, once.
func wrapShard(shard int, err error) error {
	var sf *ErrShardFailed
	if errors.As(err, &sf) {
		return err
	}
	return &ErrShardFailed{Shard: shard, Cause: err}
}

// isDeviceFailure reports whether err is the kind of failure failover can
// mask: the shard's device died (injected fail point or closed device), as
// opposed to a semantic error every replica would reproduce.
func isDeviceFailure(err error) bool {
	return errors.Is(err, nvm.ErrFailPoint) || errors.Is(err, nvm.ErrClosed)
}

// sanitizeOpts strips the per-construction fields from opts, leaving the
// base configuration failover recovery reuses for Reopen/New on a promoted
// follower.
func sanitizeOpts(opts Options) Options {
	opts.Device = nil
	opts.ShardDevices = nil
	opts.Replication = Replication{}
	opts.Path = ""
	return opts
}

// NewSharded builds one engine per shard grammar concurrently and returns
// the coordinator.  Shard grammars come from sequitur.InferShards (or
// cfg.ReadShards); all shards share one dictionary.  Per-shard devices are
// created automatically, or injected via opts.ShardDevices; a file-backed
// opts.Path becomes one file per shard (path + ".shardN").  With
// opts.Replication, each shard's followers are seeded with a snapshot of
// the freshly built pool and then track it commit by commit.
func NewSharded(gs []*cfg.Grammar, d *dict.Dictionary, opts Options) (*ShardedEngine, error) {
	if len(gs) == 0 {
		return nil, errEngine("new sharded", errors.New("no shard grammars"))
	}
	if opts.ShardDevices != nil && len(opts.ShardDevices) != len(gs) {
		return nil, errEngine("new sharded", fmt.Errorf("%d devices for %d shards",
			len(opts.ShardDevices), len(gs)))
	}
	if opts.Replication.FollowerDevices != nil && len(opts.Replication.FollowerDevices) != len(gs) {
		return nil, errEngine("new sharded", fmt.Errorf("%d follower slices for %d shards",
			len(opts.Replication.FollowerDevices), len(gs)))
	}
	se := &ShardedEngine{
		shards: make([]*Engine, len(gs)),
		bases:  make([]uint32, len(gs)),
		d:      d,
		gs:     append([]*cfg.Grammar(nil), gs...),
		opts:   sanitizeOpts(opts),
	}
	for i, g := range gs {
		se.bases[i] = se.nfiles
		se.nfiles += g.NumFiles
	}
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *cfg.Grammar) {
			defer wg.Done()
			o := opts
			o.ShardIndex = uint32(i)
			o.ShardCount = uint32(len(gs))
			o.Device = nil
			o.ShardDevices = nil
			if opts.ShardDevices != nil {
				o.Device = opts.ShardDevices[i]
			}
			if o.Path != "" {
				o.Path = fmt.Sprintf("%s.shard%d", opts.Path, i)
			}
			se.shards[i], errs[i] = New(g, d, o)
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// Discard the devices this constructor created; injected devices
			// stay with the caller (the crash harness clones them after a
			// failed build, exactly like core.New with an injected Device).
			if opts.ShardDevices == nil {
				for _, sh := range se.shards {
					if sh != nil {
						sh.Close()
					}
				}
			}
			return nil, errEngine("new sharded", fmt.Errorf("shard %d: %w", i, err))
		}
	}
	if err := se.attachReplication(opts.Replication); err != nil {
		if opts.ShardDevices == nil {
			for _, sh := range se.shards {
				sh.Close()
			}
		}
		return nil, errEngine("new sharded", err)
	}
	se.deltaMaps = make([][]uint32, len(se.shards))
	spans := make([]metrics.Span, len(se.shards))
	for i, sh := range se.shards {
		spans[i] = sh.InitSpan()
	}
	se.initSpan = metrics.MergeParallel(spans...)
	return se, nil
}

// attachReplication seeds each shard's followers with a snapshot of its
// primary's durable image (the shipped commit stream extends it from there)
// and hooks the replicators into the primaries' drain paths.
func (se *ShardedEngine) attachReplication(repl Replication) error {
	repl = repl.withDefaults()
	if !repl.enabled() {
		return nil
	}
	se.replicaReads = repl.ReplicaReads
	//ntalint:ignore guardcheck construction phase: attachReplication runs inside BuildSharded/ReopenSharded before the engine is shared.
	se.reps = make([]*replicator, len(se.shards))
	se.replicas = make([]*Engine, len(se.shards))
	se.replicaSess = make([]*Session, len(se.shards))
	for i, sh := range se.shards {
		var fdevs []*nvm.SimDevice
		if repl.FollowerDevices != nil {
			fdevs = repl.FollowerDevices[i]
		} else {
			dev := sh.Device()
			for f := 0; f < repl.Followers; f++ {
				fdevs = append(fdevs, nvm.NewWithModel(dev.Kind(), dev.Size(), dev.Model()))
			}
		}
		if len(fdevs) == 0 {
			continue
		}
		r := newReplicator(sh.Device(), fdevs, repl.Mode, repl.LagBound)
		if err := r.bootstrap(); err != nil {
			return err
		}
		sh.Device().SetShipper(r)
		//ntalint:ignore guardcheck construction phase: attachReplication runs inside BuildSharded/ReopenSharded before the engine is shared.
		se.reps[i] = r
	}
	return nil
}

// ReopenSharded recovers a sharded engine from its per-shard devices after
// a crash or restart: each shard recovers independently under the
// single-engine recovery contract (devs[i] carries shard i's pool).  Pool shard stamps
// are validated against the assembly order, so a reordered or foreign
// device set fails with ErrShardMismatch rather than silently merging the
// wrong documents.  When opts.Replication injects follower devices, a shard
// whose primary fails to recover falls over to the first follower that
// passes the same recovery contract and stamp validation; only if every
// replica of a shard is unrecoverable does the reopen fail, with
// ErrShardFailed naming the shard (and ErrNeedsReload in its cause chain
// when that shard's initialization never completed anywhere — the caller
// rebuilds it from the compressed input).  The per-shard infos of the
// shards examined so far are returned alongside the error.
func ReopenSharded(devs []*nvm.SimDevice, d *dict.Dictionary, opts Options) (*ShardedEngine, []*RecoveryInfo, error) {
	if len(devs) == 0 {
		return nil, nil, errEngine("reopen sharded", errors.New("no shard devices"))
	}
	repl := opts.Replication.withDefaults()
	if repl.FollowerDevices != nil && len(repl.FollowerDevices) != len(devs) {
		return nil, nil, errEngine("reopen sharded", fmt.Errorf("%d follower slices for %d shards",
			len(repl.FollowerDevices), len(devs)))
	}
	se := &ShardedEngine{
		shards: make([]*Engine, len(devs)),
		bases:  make([]uint32, len(devs)),
		d:      d,
		opts:   sanitizeOpts(opts),
	}
	reopenOne := func(i int, dev *nvm.SimDevice) (*Engine, *RecoveryInfo, error) {
		o := opts
		o.Device = nil
		o.ShardDevices = nil
		o.Replication = Replication{}
		o.ShardIndex = uint32(i)
		o.ShardCount = uint32(len(devs))
		e, info, err := Reopen(dev, d, o)
		if err != nil {
			return nil, nil, err
		}
		if idx, cnt := e.pool.Shard(); idx != uint32(i) || cnt != uint32(len(devs)) {
			return nil, nil, fmt.Errorf("%w: pool stamped %d of %d", ErrShardMismatch, idx, cnt)
		}
		// Build tags must agree across the set (and with the caller's
		// expectation, when it has one): positional stamps cannot tell shard
		// 1-of-4 of one unified build from shard 1-of-4 of another.
		if tag := e.pool.Tag(); opts.BuildTag != 0 && tag != opts.BuildTag {
			return nil, nil, fmt.Errorf("%w: pool build tag %08x, want %08x",
				ErrShardMismatch, tag, opts.BuildTag)
		} else if i > 0 && tag != se.shards[0].pool.Tag() {
			return nil, nil, fmt.Errorf("%w: pool build tag %08x differs from shard 0's %08x",
				ErrShardMismatch, tag, se.shards[0].pool.Tag())
		}
		return e, info, nil
	}
	remaining := make([][]*nvm.SimDevice, len(devs))
	infos := make([]*RecoveryInfo, 0, len(devs))
	for i, dev := range devs {
		e, info, err := reopenOne(i, dev)
		if repl.FollowerDevices != nil {
			remaining[i] = repl.FollowerDevices[i]
			if err != nil {
				// Primary unrecoverable: promote the first follower whose
				// image passes the identical contract.
				for fi, fdev := range repl.FollowerDevices[i] {
					fe, finfo, ferr := reopenOne(i, fdev)
					if ferr == nil {
						e, info, err = fe, finfo, nil
						rest := make([]*nvm.SimDevice, 0, len(repl.FollowerDevices[i])-1)
						rest = append(rest, repl.FollowerDevices[i][:fi]...)
						rest = append(rest, repl.FollowerDevices[i][fi+1:]...)
						remaining[i] = rest
						break
					}
				}
			}
		}
		if err != nil {
			return nil, infos, wrapShard(i, err)
		}
		se.shards[i] = e
		se.bases[i] = se.nfiles
		se.nfiles += e.numFiles
		infos = append(infos, info)
	}
	if repl.enabled() {
		r2 := repl
		if repl.FollowerDevices != nil {
			r2.FollowerDevices = remaining
		}
		if err := se.attachReplication(r2); err != nil {
			return nil, infos, errEngine("reopen sharded", err)
		}
	}
	if err := se.recoverIngestMaps(); err != nil {
		return nil, infos, errEngine("reopen sharded", err)
	}
	return se, infos, nil
}

// recoverIngestMaps rebuilds the coordinator's global ingestion state after
// a sharded reopen: every shard's recovered batch history is collected,
// ordered globally (batches carry the global index of their first document),
// the shared dictionary's appended vocabulary is restored in that global
// order, and the per-shard document maps are rebuilt.
func (se *ShardedEngine) recoverIngestMaps() error {
	se.ingestMu.Lock()
	defer se.ingestMu.Unlock()
	se.deltaMaps = make([][]uint32, len(se.shards))
	type owned struct {
		b     IngestBatch
		shard int
	}
	var all []owned
	for i, sh := range se.shards {
		for _, b := range sh.IngestBatches() {
			all = append(all, owned{b: b, shard: i})
		}
	}
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(a, b owned) int { return cmp.Compare(a.b.GlobalBase, b.b.GlobalBase) })
	batches := make([]IngestBatch, len(all))
	for i, o := range all {
		batches[i] = o.b
	}
	if err := restoreVocabulary(se.d, batches); err != nil {
		return fmt.Errorf("%w: %v", ErrNeedsReload, err)
	}
	for _, o := range all {
		if o.b.GlobalBase != se.nfiles+se.appended {
			return fmt.Errorf("%w: append batch at global %d, expected %d",
				ErrNeedsReload, o.b.GlobalBase, se.nfiles+se.appended)
		}
		for k := range o.b.Docs {
			se.deltaMaps[o.shard] = append(se.deltaMaps[o.shard], o.b.GlobalBase+uint32(k))
		}
		se.appended += uint32(len(o.b.Docs))
	}
	return nil
}

// shardPin is one shard's pinned serving cut: the serving tail at pin time,
// a pinned delta view (nil when the shard had no live delta documents), and
// the document maps placing the tail's and the view's documents at their
// global corpus positions.  baseMap is nil while the tail still serves
// exactly the build-time base — the contiguous DocBase offset suffices —
// and becomes explicit once compaction folds appended documents (globally
// interleaved with other shards') into the tail.
type shardPin struct {
	tail     *Engine
	view     *deltaView
	baseMap  []uint32
	deltaMap []uint32
}

// ingestPins is the consistent corpus cut one scatter-gather observes: every
// shard's serving state pinned under ingestMu, so the merged result reflects
// exactly the appends committed before the batch started, no matter how many
// appends and compactions land while it runs.
type ingestPins struct {
	mu     sync.Mutex // guards pins: failover lanes repin concurrently
	pins   []shardPin
	nfiles int // global document count at pin time
}

// pinIngest pins every shard's serving state for one scatter-gather, or
// returns nil when no shard is appendable — the legacy merge path then runs
// unchanged.  The caller must release the pins.
func (se *ShardedEngine) pinIngest() *ingestPins {
	se.ingestMu.Lock()
	defer se.ingestMu.Unlock()
	any := false
	for _, sh := range se.shards {
		if sh.ingest != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	p := &ingestPins{pins: make([]shardPin, len(se.shards)), nfiles: int(se.nfiles + se.appended)}
	for i := range se.shards {
		p.pins[i] = se.pinShard(i)
	}
	return p
}

// pinShard pins shard i's current serving cut.  Caller holds ingestMu, so
// no append is in flight and every committed delta document already has its
// entry in deltaMaps[i]; compactions may still race, which pinServing's
// retry protocol absorbs.
func (se *ShardedEngine) pinShard(i int) shardPin {
	sh := se.shards[i]
	st := sh.ingest
	if st == nil {
		return shardPin{}
	}
	t, v := st.pinServing()
	pin := shardPin{tail: t, view: v}
	compacted := int(t.numFiles) - int(sh.numFiles)
	if compacted > 0 {
		bm := make([]uint32, 0, int(sh.numFiles)+compacted)
		for d := uint32(0); d < sh.numFiles; d++ {
			bm = append(bm, se.bases[i]+d)
		}
		bm = append(bm, se.deltaMaps[i][:compacted]...)
		pin.baseMap = bm
	}
	if v != nil && v.eng != nil && v.docs > 0 {
		end := compacted + int(v.docs)
		if end > len(se.deltaMaps[i]) {
			end = len(se.deltaMaps[i]) // view outran the maps: lossy failover
		}
		pin.deltaMap = append([]uint32(nil), se.deltaMaps[i][compacted:end]...)
	} else if v != nil {
		v.release()
		pin.view = nil
	}
	return pin
}

// serving returns shard i's pinned serving tail, nil when the shard is not
// pinned (or pins is nil entirely — the non-appendable path).
func (p *ingestPins) serving(i int) *Engine {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pins[i].tail
}

// repin refreshes shard i's pin after a failover promoted a new primary: the
// recovered engine replayed its durable append log into a fresh delta view,
// with no compaction chain, so the shard's cut is re-derived from scratch.
func (p *ingestPins) repin(se *ShardedEngine, i int) {
	if p == nil {
		return
	}
	se.ingestMu.Lock()
	pin := se.pinShard(i)
	se.ingestMu.Unlock()
	p.mu.Lock()
	old := p.pins[i].view
	p.pins[i] = pin
	p.mu.Unlock()
	old.release()
}

// release drops every pinned view.
func (p *ingestPins) release() {
	if p == nil {
		return
	}
	p.mu.Lock()
	pins := p.pins
	p.pins = nil
	p.mu.Unlock()
	for i := range pins {
		pins[i].view.release()
	}
}

// Append appends a batch of documents to the sharded corpus: the whole batch
// routes to the least-loaded shard's durable append log (a batch never spans
// shards), and its documents take the next global positions in append order.
// vocab and novel follow the same contract as Engine.AppendAt: vocab is the
// shared dictionary's size after interning the batch, novel its newly
// interned words in order.
func (se *ShardedEngine) Append(docs []AppendDoc, vocab uint32, novel []string) error {
	if len(docs) == 0 {
		return nil
	}
	se.ingestMu.Lock()
	defer se.ingestMu.Unlock()
	best := -1
	for i := range se.shards {
		if se.shards[i].ingest == nil {
			continue
		}
		if best < 0 || len(se.deltaMaps[i]) < len(se.deltaMaps[best]) {
			best = i
		}
	}
	if best < 0 {
		return ErrNoIngest
	}
	base := se.nfiles + se.appended
	if err := se.shards[best].AppendAt(docs, vocab, novel, base); err != nil {
		return err
	}
	for k := range docs {
		se.deltaMaps[best] = append(se.deltaMaps[best], base+uint32(k))
	}
	se.appended += uint32(len(docs))
	return nil
}

// CorpusEpoch sums the shard epochs: it advances on every committed append
// and every shard compaction, and serving layers key caches by it.  Zero for
// engine sets without ingestion.
func (se *ShardedEngine) CorpusEpoch() uint64 {
	var sum uint64
	for _, sh := range se.shards {
		sum += sh.CorpusEpoch()
	}
	return sum
}

// IngestStats aggregates the shards' ingestion state.
func (se *ShardedEngine) IngestStats() IngestStats {
	var agg IngestStats
	for _, sh := range se.shards {
		s := sh.IngestStats()
		agg.Batches += s.Batches
		agg.Docs += s.Docs
		agg.LogBytes += s.LogBytes
		agg.LogCap += s.LogCap
		agg.DeltaDocs += s.DeltaDocs
		agg.DeltaRules += s.DeltaRules
		agg.DeltaReused += s.DeltaReused
		agg.DeltaSymbols += s.DeltaSymbols
		agg.CompactedDocs += s.CompactedDocs
		agg.Compactions += s.Compactions
	}
	return agg
}

// CompactIfNeeded re-merges every shard's delta whose size exceeds the
// policy, one shard at a time; a shard already compacting is skipped.  It
// reports whether any shard compacted.
func (se *ShardedEngine) CompactIfNeeded(p CompactionPolicy) (bool, error) {
	p = p.withDefaults()
	did := false
	for _, sh := range se.shards {
		st := sh.ingest
		if st == nil {
			continue
		}
		if !p.exceeded(sh.IngestStats()) {
			continue
		}
		if err := st.compact(); err != nil {
			if errors.Is(err, ErrCompacting) {
				continue
			}
			return did, err
		}
		did = true
	}
	return did, nil
}

// shardedEnv is the Env the coordinator offers merging folds: whole-corpus
// shape, coordinator-side CPU charging, no sequence-key resolution (shard
// results arrive already Seq-keyed).
type shardedEnv struct {
	d      *dict.Dictionary
	nfiles int
	meter  *metrics.Meter
}

func (e shardedEnv) Dict() *dict.Dictionary     { return e.d }
func (e shardedEnv) NumFiles() int              { return e.nfiles }
func (e shardedEnv) SeqOf(uint64) analytics.Seq { panic("core: merge env resolves no sequence keys") }
func (e shardedEnv) Charge(n, perOp int64)      { e.meter.Charge(n, perOp) }

// unit is one dispatchable slice of a scatter-gather: a shard, the indices
// of the batch ops it serves, and whether the shard's read replica (a query
// session over a recovered follower image) serves it instead of the
// primary.  Without replica reads every shard is one unit carrying the
// whole batch.
type unit struct {
	shard   int
	opIdx   []int
	replica bool
}

// plainUnits is the one-unit-per-shard schedule.
func plainUnits(k, numOps int) []unit {
	idx := make([]int, numOps)
	for j := range idx {
		idx[j] = j
	}
	units := make([]unit, k)
	for i := range units {
		units[i] = unit{shard: i, opIdx: idx}
	}
	return units
}

// planUnits builds the engine path's dispatch schedule.  With replica reads
// enabled, a multi-op batch is split between each shard's primary and its
// read replica, halving the shard's serial tail on the lane schedule.
func (se *ShardedEngine) planUnits(numOps int) []unit {
	if !se.replicaReads || numOps < 2 {
		return plainUnits(len(se.shards), numOps)
	}
	idx := make([]int, numOps)
	for j := range idx {
		idx[j] = j
	}
	units := make([]unit, 0, 2*len(se.shards))
	for i := range se.shards {
		if se.ensureReplica(i) != nil {
			half := (numOps + 1) / 2
			units = append(units,
				unit{shard: i, opIdx: idx[:half]},
				unit{shard: i, opIdx: idx[half:], replica: true})
		} else {
			units = append(units, unit{shard: i, opIdx: idx})
		}
	}
	return units
}

// ensureReplica lazily recovers shard i's read replica: the freshest live
// follower's durable image is cloned (leaving the follower itself pure for
// failover) and reopened under the ordinary recovery contract, and a query
// session over the clone serves reads.  Returns nil when the shard has no
// usable replica.  Query results depend only on the immutable init
// structures, so any post-init consistent image answers bit-identically to
// the primary.
func (se *ShardedEngine) ensureReplica(i int) *Session {
	if se.replicaSess == nil {
		return nil
	}
	if se.replicaSess[i] != nil {
		return se.replicaSess[i]
	}
	se.failMu.Lock()
	rep := se.reps[i]
	se.failMu.Unlock()
	if rep == nil {
		return nil
	}
	devs := rep.liveFollowers()
	if len(devs) == 0 {
		return nil
	}
	clone, err := devs[0].CloneDurable()
	if err != nil {
		return nil
	}
	o := se.opts
	o.ShardIndex = uint32(i)
	o.ShardCount = uint32(len(se.shards))
	e, _, err := Reopen(clone, se.d, o)
	if err != nil {
		_ = clone.Discard()
		return nil
	}
	se.replicas[i] = e
	se.replicaSess[i] = e.NewSession()
	return se.replicaSess[i]
}

// scatterGather runs the batch's units under a planned lane schedule — the
// fan-out planner packs units onto parallel lanes from their estimated
// costs, so trivial shards share a lane instead of each paying dispatch
// overhead — then merges the per-shard results on meter's account.  When a
// unit fails and a failover hook is given, the lane retires the failed
// shard through the hook and re-dispatches the unit against the recovered
// engine; errors that survive failover (or occur without one) surface as
// ErrShardFailed.  The schedule and per-unit spans are returned so callers
// can aggregate modeled time the same way the work actually ran.
//
// On an appendable engine set, the scatter opens by pinning every shard's
// serving state — the compacted serving tail, the delta view, and a snapshot
// of the global document maps — so the whole batch observes one consistent
// corpus cut even while appends and compactions proceed underneath it.  Base
// units run against the pinned tails, delta views run through transient
// query sessions, and the gather merges everything with analytics.MergeUnits
// under per-unit document maps.
func (se *ShardedEngine) scatterGather(ops []analytics.Op, units []unit,
	run func(u unit, ops []analytics.Op, serving *Engine) ([]any, metrics.Span, error),
	failover func(u unit, cause error) error,
	meter *metrics.Meter) ([]any, [][]int, []metrics.Span, error) {
	pins := se.pinIngest()
	defer pins.release()
	costs := make([]int64, len(units))
	for ui, u := range units {
		costs[ui] = se.shards[u.shard].planCost(len(u.opIdx))
	}
	lanes := planFanout(costs)
	outs := make([][]any, len(units))
	spans := make([]metrics.Span, len(units))
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			for _, ui := range lane {
				u := units[ui]
				sub := make([]analytics.Op, len(u.opIdx))
				for k, j := range u.opIdx {
					sub[k] = ops[j]
				}
				out, span, err := run(u, sub, pins.serving(u.shard))
				for err != nil && failover != nil && isDeviceFailure(err) {
					// Retire the lane's failed shard and re-dispatch its ops
					// against the recovered follower.  The loop continues as
					// long as promotion succeeds, consuming one replica per
					// round; a shard with no replica left fails typed.
					if ferr := failover(u, err); ferr != nil {
						err = ferr
						break
					}
					pins.repin(se, u.shard)
					out, span, err = run(u, sub, pins.serving(u.shard))
				}
				if err != nil {
					errs[ui] = wrapShard(u.shard, err)
					continue
				}
				outs[ui], spans[ui] = out, span
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	// Each dispatched lane charges the coordinator its scheduling and join
	// bookkeeping, the cost the fan-out planner weighs against parallelism.
	meter.Charge(int64(len(lanes)), laneDispatchCost)
	env := shardedEnv{d: se.d, nfiles: int(se.nfiles), meter: meter}
	shardOut := make([][]any, len(se.shards))
	for i := range shardOut {
		shardOut[i] = make([]any, len(ops))
	}
	for ui, u := range units {
		for k, j := range u.opIdx {
			shardOut[u.shard][j] = outs[ui][k]
		}
	}
	results := make([]any, len(ops))
	if pins == nil {
		for j, op := range ops {
			per := make([]any, len(se.shards))
			for i := range se.shards {
				per[i] = shardOut[i][j]
			}
			r, err := analytics.MergeShardResults(op, env, per, se.bases)
			if err != nil {
				return nil, nil, nil, err
			}
			results[j] = r
		}
		return results, lanes, spans, nil
	}
	// Appendable path: run the pinned delta views (whole batch each — deltas
	// are small next to the base traversals), then merge base and delta
	// units under their document maps.
	env.nfiles = pins.nfiles
	deltaOut := make([][]any, len(se.shards))
	for i := range pins.pins {
		if v := pins.pins[i].view; v != nil {
			res, err := v.runDeltaOps(ops)
			if err != nil {
				return nil, nil, nil, wrapShard(i, err)
			}
			deltaOut[i] = res
		}
	}
	for j, op := range ops {
		mu := make([]analytics.MergeUnit, 0, 2*len(se.shards))
		for i := range se.shards {
			if bm := pins.pins[i].baseMap; bm != nil {
				mu = append(mu, analytics.MergeUnit{Result: shardOut[i][j], DocMap: bm})
			} else {
				mu = append(mu, analytics.MergeUnit{Result: shardOut[i][j], DocBase: se.bases[i]})
			}
		}
		for i := range pins.pins {
			if pins.pins[i].view != nil {
				mu = append(mu, analytics.MergeUnit{Result: deltaOut[i][j], DocMap: pins.pins[i].deltaMap})
			}
		}
		r, err := analytics.MergeUnits(op, env, mu)
		if err != nil {
			return nil, nil, nil, err
		}
		results[j] = r
	}
	return results, lanes, spans, nil
}

// failoverUnit is the engine path's failover hook: promote the failed
// shard's follower and swap the recovered engine in.  Replica units have no
// further replica behind them — their clone device has no fail points — so
// they fail typed immediately.
func (se *ShardedEngine) failoverUnit(u unit, cause error) error {
	if u.replica {
		return wrapShard(u.shard, cause)
	}
	return se.failoverShard(u.shard, cause)
}

// failoverShard retires shard i's primary and recovers the shard from its
// freshest follower: queued ship batches are applied (they live in
// coordinator memory, which survives the device failure), the follower is
// promoted and reopened under the single-engine recovery contract — or,
// when its image predates a completed initialization, rebuilt from the
// retained shard grammar — its stamps are validated exactly as in
// ReopenSharded, and the remaining followers are re-seeded from the new
// primary.  The measured recovery span is folded into the batch's traversal
// span as serial critical-path work.  Returns nil when the shard is ready to re-dispatch.
func (se *ShardedEngine) failoverShard(i int, cause error) error {
	se.failMu.Lock()
	defer se.failMu.Unlock()
	var rep *replicator
	if se.reps != nil {
		rep = se.reps[i]
	}
	if rep == nil {
		return wrapShard(i, cause)
	}
	old := se.shards[i]
	old.Device().SetShipper(nil)
	fdev, rest, perr := rep.promote()
	if perr != nil {
		return &ErrShardFailed{Shard: i, Cause: errors.Join(cause, perr)}
	}
	sp := metrics.Start(fdev, &se.meter)
	o := se.opts
	o.ShardIndex = uint32(i)
	o.ShardCount = uint32(len(se.shards))
	ne, _, rerr := Reopen(fdev, se.d, o)
	switch {
	case rerr == nil:
		if idx, cnt := ne.pool.Shard(); idx != uint32(i) || cnt != uint32(len(se.shards)) {
			err := fmt.Errorf("%w: follower pool stamped %d of %d", ErrShardMismatch, idx, cnt)
			if cerr := ne.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return &ErrShardFailed{Shard: i, Cause: errors.Join(cause, err)}
		}
		if tag := ne.pool.Tag(); se.opts.BuildTag != 0 && tag != se.opts.BuildTag {
			err := fmt.Errorf("%w: follower pool build tag %08x, want %08x",
				ErrShardMismatch, tag, se.opts.BuildTag)
			if cerr := ne.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return &ErrShardFailed{Shard: i, Cause: errors.Join(cause, err)}
		}
	case errors.Is(rerr, ErrNeedsReload) && se.gs != nil && se.gs[i] != nil:
		// The follower's image predates a completed initialization (it was
		// torn or lag-bounded very early): rebuild the shard from its
		// retained grammar on a fresh device, the same reload contract the
		// crash harness exercises on primaries.
		if derr := fdev.Discard(); derr != nil {
			return &ErrShardFailed{Shard: i, Cause: errors.Join(cause, rerr, derr)}
		}
		ne2, nerr := New(se.gs[i], se.d, o)
		if nerr != nil {
			return &ErrShardFailed{Shard: i, Cause: errors.Join(cause, rerr, nerr)}
		}
		ne = ne2
	default:
		return &ErrShardFailed{Shard: i, Cause: errors.Join(cause, rerr)}
	}
	sp.Stop()
	se.shards[i] = ne
	se.retiredEng = append(se.retiredEng, old)
	se.retiredReps = append(se.retiredReps, rep)
	se.reps[i] = nil
	if len(rest) > 0 {
		// Re-seed the surviving followers from the recovered primary and
		// keep shipping; a shard can survive as many failures as it has
		// replicas.
		nr := newReplicator(ne.Device(), rest, rep.mode, rep.lag)
		if err := nr.bootstrap(); err == nil {
			ne.Device().SetShipper(nr)
			se.reps[i] = nr
		}
	}
	se.failovers++
	se.failoverSpans = append(se.failoverSpans, *sp)
	return nil
}

// takeFailoverSpans drains the recovery spans accumulated during the
// current batch.
func (se *ShardedEngine) takeFailoverSpans() []metrics.Span {
	se.failMu.Lock()
	defer se.failMu.Unlock()
	spans := se.failoverSpans
	se.failoverSpans = nil
	return spans
}

// RunOps implements analytics.Executor: the batch executes fused on every
// shard concurrently, and the per-shard results are merged into corpus-wide
// results.  results[i] corresponds to ops[i] with the op's canonical result
// type, bit-identical to a single engine over the whole corpus — also
// when a shard fails over to its follower mid-batch, and when replica reads
// split the batch across primary and follower images.
func (se *ShardedEngine) RunOps(ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	cpu0 := se.meter.Nanos()
	units := se.planUnits(len(ops))
	results, lanes, spans, err := se.scatterGather(ops, units,
		func(u unit, sub []analytics.Op, serving *Engine) ([]any, metrics.Span, error) {
			// Replica read-splitting serves the shard's base image; once the
			// shard is appendable its serving tail may have compacted past
			// that image, so pinned shards always read the pinned tail.
			if u.replica && serving == nil {
				sess := se.replicaSess[u.shard]
				sp := metrics.Start(se.replicas[u.shard].Device(), sess.Meter())
				res, err := sess.RunOps(sub)
				if err != nil {
					return nil, metrics.Span{}, err
				}
				return res, *sp.Stop(), nil
			}
			sh := serving
			if sh == nil {
				sh = se.shards[u.shard] // re-read: failover may have swapped it
			}
			res, err := sh.RunOps(sub)
			if err != nil {
				return nil, metrics.Span{}, err
			}
			return res, sh.LastTraversalSpan(), nil
		},
		se.failoverUnit, &se.meter)
	if err != nil {
		return nil, err
	}
	// Aggregate along the planned schedule: units on one lane ran serially,
	// lanes in parallel, the coordinator's merge extends the critical path,
	// and any failover recovery extends it further as measured serial work.
	trav := metrics.MergeScheduled(lanes, spans).AddSerial(se.meter.Nanos() - cpu0)
	tails := metrics.LaneTails(lanes, spans)
	for _, fs := range se.takeFailoverSpans() {
		trav = trav.AddSerialSpan(fs)
	}
	se.mu.Lock()
	se.lastTrav = trav
	se.lastTails = tails
	se.mu.Unlock()
	return results, nil
}

// RunOp implements analytics.Executor.
func (se *ShardedEngine) RunOp(op analytics.Op) (any, error) {
	results, err := se.RunOps([]analytics.Op{op})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

var _ analytics.Executor = (*ShardedEngine)(nil)

// ShardedSession is a read-only query context over every shard: one session
// per shard engine, run in parallel and merged like the engine's task path,
// with all merge-side state session-local.  Sessions model the post-load
// query phase and must not run concurrently with the engine task path or
// Close, only with each other.  Sessions never mutate devices, so they have
// no failover path; a device error surfaces as ErrShardFailed.
type ShardedSession struct {
	se       *ShardedEngine
	sessions []*Session
	meter    metrics.Meter
}

// NewSession opens one query session per shard.
func (se *ShardedEngine) NewSession() *ShardedSession {
	ss := &ShardedSession{se: se, sessions: make([]*Session, len(se.shards))}
	for i, sh := range se.shards {
		ss.sessions[i] = sh.NewSession()
	}
	return ss
}

// RunOps implements analytics.Executor over session-local state.
func (ss *ShardedSession) RunOps(ops []analytics.Op) ([]any, error) {
	return ss.runOps(nil, ops)
}

// RunOpsContext is RunOps with cancellation: every shard session polls the
// same ctx, so canceling the request unwinds all lanes of the scatter-gather
// promptly (within one body read per lane).  The cancellation surfaces as
// ErrShardFailed with ctx.Err() in its cause chain — callers distinguish a
// canceled batch from a genuine shard failure with errors.Is against
// context.Canceled / context.DeadlineExceeded.
func (ss *ShardedSession) RunOpsContext(ctx context.Context, ops []analytics.Op) ([]any, error) {
	return ss.runOps(ctx, ops)
}

func (ss *ShardedSession) runOps(ctx context.Context, ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	units := plainUnits(len(ss.sessions), len(ops))
	results, _, _, err := ss.se.scatterGather(ops, units,
		func(u unit, sub []analytics.Op, serving *Engine) ([]any, metrics.Span, error) {
			sess := ss.sessions[u.shard]
			if serving != nil && serving != sess.e {
				// The shard's serving tail was promoted past the engine this
				// session was opened on; a transient session over the pinned
				// tail observes the compacted corpus the document maps expect.
				sess = serving.NewSession()
			}
			res, err := sess.runOps(ctx, sub)
			return res, metrics.Span{}, err
		}, nil, &ss.meter)
	return results, err
}

// RunOp implements analytics.Executor.
func (ss *ShardedSession) RunOp(op analytics.Op) (any, error) {
	results, err := ss.RunOps([]analytics.Op{op})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

var _ analytics.Executor = (*ShardedSession)(nil)

// Meter reports the modeled CPU cost of this session's merge work; the
// per-shard traversal costs live on the shard sessions' meters.
func (ss *ShardedSession) Meter() *metrics.Meter { return &ss.meter }

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns shard i's engine, for inspection and shard-local recovery
// checks; mutating it directly bypasses the coordinator.  After a failover
// this is the recovered engine, not the retired primary.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// DocBases returns the global index of each shard's first document.
func (se *ShardedEngine) DocBases() []uint32 { return se.bases }

// Followers returns shard i's current live follower devices, as they stand
// — queued async batches are not applied first (see ReplicaBarrier).  Nil
// when the shard is unreplicated.
func (se *ShardedEngine) Followers(i int) []*nvm.SimDevice {
	se.failMu.Lock()
	defer se.failMu.Unlock()
	if se.reps == nil || se.reps[i] == nil {
		return nil
	}
	r := se.reps[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	var devs []*nvm.SimDevice
	for _, f := range r.followers {
		if f.err == nil {
			devs = append(devs, f.dev)
		}
	}
	return devs
}

// ReplicaBarrier applies every queued async ship batch, bringing all live
// followers current with their primaries' durable images.
func (se *ShardedEngine) ReplicaBarrier() {
	se.failMu.Lock()
	defer se.failMu.Unlock()
	for _, r := range se.reps {
		if r != nil {
			r.catchUp()
		}
	}
}

// FailoverCount reports how many shard failovers this engine has performed.
func (se *ShardedEngine) FailoverCount() int {
	se.failMu.Lock()
	defer se.failMu.Unlock()
	return se.failovers
}

// InitSpan reports the parallel build: critical path across shards, summed
// device statistics.
func (se *ShardedEngine) InitSpan() metrics.Span { return se.initSpan }

// LastTraversalSpan reports the last scatter-gather: the slowest lane's
// traversal plus the coordinator's merge and any failover recovery.
func (se *ShardedEngine) LastTraversalSpan() metrics.Span {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.lastTrav
}

// LastLaneTails reports each lane's serial modeled total for the last
// engine batch — the distribution MergeScheduled's critical path is the max
// of.  Replica reads shorten the longest tail by splitting shard batches
// across primary and follower images.
func (se *ShardedEngine) LastLaneTails() []int64 {
	se.mu.Lock()
	defer se.mu.Unlock()
	return append([]int64(nil), se.lastTails...)
}

// NVMBytes sums pool residency across shards.
func (se *ShardedEngine) NVMBytes() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.NVMBytes()
	}
	return n
}

// DRAMBytes sums DRAM residency across shards.
func (se *ShardedEngine) DRAMBytes() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.DRAMBytes()
	}
	return n
}

// DeviceStats sums device counters across the shard devices.
func (se *ShardedEngine) DeviceStats() nvm.Stats {
	var st nvm.Stats
	for _, sh := range se.shards {
		st = st.Add(sh.Device().Stats())
	}
	return st
}

// Close releases every shard's simulated device, the follower devices, any
// read-replica clones, and the primaries retired by failovers.
func (se *ShardedEngine) Close() error {
	var errs []error
	for i, sh := range se.shards {
		if err := sh.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	se.failMu.Lock()
	defer se.failMu.Unlock()
	for _, r := range se.reps {
		if r != nil {
			if err := r.close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, r := range se.retiredReps {
		if err := r.close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, e := range se.retiredEng {
		if err := e.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, e := range se.replicas {
		if e != nil {
			if err := e.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
