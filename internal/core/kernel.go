package core

import (
	"context"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/pstruct"
)

// The operation kernel.  Every analytics task is the same DAG walk with a
// different per-visit action, so the engine owns exactly one copy of each
// traversal mode — top-down global, top-down per-file, bottom-up per-file,
// and the spanning-window sequence walk (seqtask.go) — and tasks plug in as
// analytics.Op implementations.  A batch of ops that need the same mode
// shares one walk: the counters differ, but the body reads (the dominant
// device traffic) happen once.
//
// exec is one traversal execution context.  The engine's task path binds it
// to the persistent pool structures — weight/scratch metadata slots, pool
// counter tables behind the op log, the pool traversal queue — which is what
// the crash-consistency machinery protects.  A query session instead binds
// it to session-local DRAM state, so concurrent sessions never touch shared
// mutable pool scratch.
type exec struct {
	e     *Engine
	meter *metrics.Meter
	sess  *sessionState // nil on the engine's persistent path

	// ctx, when non-nil, cancels the traversal between per-rule (or
	// per-file) operations: the walks poll it at their loop heads and
	// unwind with ctx.Err().  Only query sessions set it — the persistent
	// path never aborts mid-phase, so its crash-consistency story is
	// unchanged.
	ctx context.Context

	// Body-read scratch, reused across reads.  Valid only until the next
	// read of the same kind; no caller retains these slices.
	bodyFlat  []uint32
	bodySubs  []pair
	bodyWords []pair
	rawSyms   []cfg.Symbol
	edgeToks  []uint32
}

// sessionState is the DRAM half of a query session: the traversal state
// that the persistent path keeps in pool metadata slots and pool tables.
type sessionState struct {
	weights   []uint64
	remaining []uint64
}

// canceled reports the execution context's cancellation state: nil on the
// persistent path (no context) and between cancellations, ctx.Err() once the
// session's request has been canceled or has passed its deadline.  The walks
// call it once per rule or file processed — frequent enough to bound
// cancellation latency by one body read, cheap enough (two atomic loads) to
// vanish against the modeled work of the visit itself.
func (x *exec) canceled() error {
	if x.ctx == nil {
		return nil
	}
	return x.ctx.Err()
}

// kcounter is one kernel-managed counter: a bounded pool table on the
// persistent path, a DRAM map in a session.  It implements analytics.Counts.
type kcounter struct {
	tbl counterTable
	off int64
	m   map[uint64]uint64
}

func (c *kcounter) Len() int64 {
	if c.m != nil {
		return int64(len(c.m))
	}
	return c.tbl.Len()
}

func (c *kcounter) Range(fn func(k, v uint64) bool) {
	if c.m != nil {
		for k, v := range c.m {
			if !fn(k, v) {
				return
			}
		}
		return
	}
	c.tbl.Range(fn)
}

// newKCounter allocates a counter for the current execution context.
func (x *exec) newKCounter(bound, keySpace int64) (*kcounter, error) {
	if x.sess != nil {
		return &kcounter{off: -1, m: make(map[uint64]uint64)}, nil
	}
	tbl, off, err := x.e.newCounter(bound, keySpace)
	if err != nil {
		return nil, err
	}
	return &kcounter{tbl: tbl, off: off}, nil
}

// add performs one counter mutation.  The persistent path goes through the
// op-log write-ahead protocol; the session path charges the same hash cost
// into the session meter.
func (x *exec) add(c *kcounter, key, delta uint64) error {
	if c.m != nil {
		x.meter.Charge(1, metrics.CostHashOp)
		c.m[key] += delta
		return nil
	}
	return x.e.addCount(c.tbl, c.off, key, delta)
}

// commit fences the op log after one analytics operation; free when nothing
// was appended, a no-op in sessions.
func (x *exec) commit() error {
	if x.sess != nil {
		return nil
	}
	return x.e.opCommit()
}

// Rule weights and the remaining-parents scratch: NVM metadata slots on the
// persistent path (charged by the device model, readable after a crash),
// session-local arrays otherwise.  Access order mirrors the persistent
// accessors exactly so the modeled device pattern is unchanged.

func (x *exec) weight(r uint32) uint64 {
	if x.sess != nil {
		return x.sess.weights[r]
	}
	return x.e.meta(r).weight()
}

func (x *exec) setWeight(r uint32, v uint64) {
	if x.sess != nil {
		x.sess.weights[r] = v
		return
	}
	x.e.meta(r).setWeight(v)
}

func (x *exec) remaining(r uint32) uint64 {
	if x.sess != nil {
		return x.sess.remaining[r]
	}
	return x.e.meta(r).scratch()
}

func (x *exec) setRemaining(r uint32, v uint64) {
	if x.sess != nil {
		x.sess.remaining[r] = v
		return
	}
	x.e.meta(r).setScratch(v)
}

// kqueue is the Kahn work queue: the pool traversal queue on the persistent
// path, a DRAM FIFO in a session.
type kqueue struct {
	q    *pstruct.Queue
	ring []uint32
	head int
}

func (x *exec) newQueue(capacity int64) (*kqueue, error) {
	if x.sess != nil {
		return &kqueue{ring: make([]uint32, 0, capacity)}, nil
	}
	q, err := pstruct.NewQueue(x.e.pool, capacity)
	if err != nil {
		return nil, err
	}
	return &kqueue{q: q}, nil
}

func (q *kqueue) push(r uint32) error {
	if q.q != nil {
		return q.q.Push(r)
	}
	q.ring = append(q.ring, r)
	return nil
}

func (q *kqueue) pop() (uint32, error) {
	if q.q != nil {
		return q.q.Pop()
	}
	r := q.ring[q.head]
	q.head++
	return r, nil
}

func (q *kqueue) len() int64 {
	if q.q != nil {
		return q.q.Len()
	}
	return int64(len(q.ring) - q.head)
}

// execEnv adapts an execution context to the analytics.Env folds consume.
type execEnv struct{ x *exec }

func (v execEnv) Dict() *dict.Dictionary         { return v.x.e.d }
func (v execEnv) NumFiles() int                  { return int(v.x.e.numFiles) }
func (v execEnv) SeqOf(key uint64) analytics.Seq { return v.x.e.seqList[key] }
func (v execEnv) Charge(n, perOp int64)          { v.x.meter.Charge(n, perOp) }

// runPlan executes a batch of ops over the fewest traversals their
// declarations allow: one top-down global pass feeds every global op (word
// counters and, via the weights it leaves behind, the sequence
// decomposition), and one per-file pass feeds every per-file op.
// resultOffs[i] is the durable pool offset of op i's global counter (0 for
// per-file ops, whose results are DRAM aggregates).
func (x *exec) runPlan(ops []analytics.Op) (results []any, resultOffs []int64, err error) {
	env := execEnv{x: x}
	folds := make([]analytics.Fold, len(ops))
	resultOffs = make([]int64, len(ops))
	var globalWord, globalSeq, fileWord, fileSeq []int
	for i, op := range ops {
		folds[i] = op.NewFold(env)
		switch {
		case op.Scope() == analytics.ScopeGlobal && op.Keys() == analytics.KeyWords:
			globalWord = append(globalWord, i)
		case op.Scope() == analytics.ScopeGlobal:
			globalSeq = append(globalSeq, i)
		case op.Keys() == analytics.KeyWords:
			fileWord = append(fileWord, i)
		default:
			fileSeq = append(fileSeq, i)
		}
	}

	if len(globalWord)+len(globalSeq) > 0 {
		var gw, gs *kcounter
		var root []cfg.Symbol
		if len(globalWord) > 0 {
			if gw, err = x.newKCounter(x.e.globalBound(), int64(x.e.numWords)); err != nil {
				return nil, nil, err
			}
		}
		if len(globalSeq) > 0 {
			root = x.readRoot()
			if gs, err = x.newKCounter(x.seqBound(root), int64(len(x.e.seqList))); err != nil {
				return nil, nil, err
			}
		}
		var emit func(word uint32, count uint64) error
		if gw != nil {
			emit = func(w uint32, count uint64) error { return x.add(gw, uint64(w), count) }
		}
		// One pass propagates the weights; word emission rides along for
		// free because the body read fetches subrules and words together.
		if err := x.topDownPass(emit); err != nil {
			return nil, nil, err
		}
		for _, i := range globalWord {
			resultOffs[i] = gw.off
			if err := folds[i].Global(gw); err != nil {
				return nil, nil, err
			}
		}
		if gs != nil {
			// §IV-D decomposition: global sequence counts are the root's
			// spanning windows plus each rule's local table scaled by the
			// corpus-wide weight the pass above left behind.
			if err := x.addWeightedLocals(gs, x.weight); err != nil {
				return nil, nil, err
			}
			if err := x.addSpanningToCounter(root, gs); err != nil {
				return nil, nil, err
			}
			for _, i := range globalSeq {
				resultOffs[i] = gs.off
				if err := folds[i].Global(gs); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	if len(fileWord)+len(fileSeq) > 0 {
		err := x.perFilePass(len(fileWord) > 0, len(fileSeq) > 0,
			func(doc uint32, wordC, seqC *kcounter) error {
				for _, i := range fileWord {
					if err := folds[i].File(doc, wordC); err != nil {
						return err
					}
				}
				for _, i := range fileSeq {
					if err := folds[i].File(doc, seqC); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			return nil, nil, err
		}
	}

	results = make([]any, len(ops))
	for i := range ops {
		if results[i], err = folds[i].Finish(); err != nil {
			return nil, nil, err
		}
	}
	return results, resultOffs, nil
}

// runOps is the engine task path: one traversal phase over this engine's
// own pool.  Ops execute fused, and the last op's task and result table are
// what the phase commit records — the same durable state a sequential run of
// the batch would leave.  An appendable engine serves its base image only;
// the sharded coordinator pins its delta views and merges them globally.
func (e *Engine) runOps(what string, ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for _, op := range ops {
		if op.Keys() == analytics.KeySequences && !e.seqEnabled {
			return nil, ErrNoSequences
		}
	}
	span, err := e.beginTraversal()
	if err != nil {
		return nil, errEngine(what, err)
	}
	results, offs, err := e.run.runPlan(ops)
	if err != nil {
		return nil, errEngine(what, err)
	}
	last := len(ops) - 1
	if err := e.endTraversal(span, ops[last].Task(), offs[last]); err != nil {
		return nil, errEngine(what, err)
	}
	return results, nil
}

// RunOps implements analytics.Executor: it executes the batch in one fused
// traversal, sharing body reads and weight propagation among compatible ops.
// results[i] corresponds to ops[i] with the op's canonical result type.
func (e *Engine) RunOps(ops []analytics.Op) ([]any, error) {
	return e.runOps("run ops", ops)
}

// RunOp implements analytics.Executor.
func (e *Engine) RunOp(op analytics.Op) (any, error) {
	results, err := e.runOps(op.Name(), []analytics.Op{op})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

var _ analytics.Executor = (*Engine)(nil)
