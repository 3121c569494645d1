package core

import (
	"context"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// Session is a read-only query context over an engine's pool: it runs
// analytics ops through the same operation kernel as the engine's task
// path (RunOp/RunOps), but keeps every piece of traversal state — rule
// weights, the Kahn queue, result counters — in session-local DRAM, so it
// never mutates the pool.  Multiple sessions may query one engine
// concurrently from different goroutines.
//
// Sessions model the post-load query phase: they must not run concurrently
// with the engine task path or Close (those mutate traversal scratch in the
// pool), only with each other.  Opening the first session switches the
// simulated device into shared mode, which serializes its bookkeeping;
// device statistics then aggregate the traffic of all sessions.
type Session struct {
	e     *Engine
	meter metrics.Meter
	run   exec
}

// NewSession opens a query session over the engine's current pool contents.
func (e *Engine) NewSession() *Session {
	s := &Session{e: e}
	s.run = exec{e: e, meter: &s.meter, sess: &sessionState{
		weights:   make([]uint64, e.numRules),
		remaining: make([]uint64, e.numRules),
	}}
	e.dev.Share()
	return s
}

// RunOps implements analytics.Executor: the batch executes in one fused
// traversal against session-local state.
func (s *Session) RunOps(ops []analytics.Op) ([]any, error) {
	return s.runOps(nil, ops)
}

// RunOpsContext is RunOps with cancellation: the traversal polls ctx at its
// loop heads and unwinds with ctx.Err() (wrapped in the usual engine error)
// once the request is canceled or past its deadline.  The session stays
// usable afterwards — every run starts from freshly reset session state, so
// an abandoned traversal leaves nothing behind.  A session must not run two
// batches concurrently; serving layers give each in-flight request its own
// pooled session.
func (s *Session) RunOpsContext(ctx context.Context, ops []analytics.Op) ([]any, error) {
	return s.runOps(ctx, ops)
}

// runOps executes the batch against this session's own engine pool.  Like
// the engine task path it serves the base image only; the sharded
// coordinator merges delta views on top.
func (s *Session) runOps(ctx context.Context, ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for _, op := range ops {
		if op.Keys() == analytics.KeySequences && !s.e.seqEnabled {
			return nil, ErrNoSequences
		}
	}
	s.run.ctx = ctx
	defer func() { s.run.ctx = nil }()
	results, _, err := s.run.runPlan(ops)
	if err != nil {
		return nil, errEngine("session", err)
	}
	return results, nil
}

// RunOp implements analytics.Executor.
func (s *Session) RunOp(op analytics.Op) (any, error) {
	results, err := s.RunOps([]analytics.Op{op})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Meter reports the modeled CPU cost of the work this session has run.
func (s *Session) Meter() *metrics.Meter {
	return &s.meter
}

var _ analytics.Executor = (*Session)(nil)
