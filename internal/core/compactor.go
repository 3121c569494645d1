package core

import (
	"sync"
	"time"
)

// CompactionPolicy sets the thresholds at which a background Compactor folds
// a shard's delta grammar back into its serving base.
type CompactionPolicy struct {
	// MaxDeltaDocs triggers a compaction once the live delta holds more than
	// this many appended documents (0 uses the default).
	MaxDeltaDocs int
	// MaxDeltaBytes triggers a compaction once the live delta grammar's body
	// symbols exceed this many bytes, at 8 bytes per symbol (0 uses the
	// default).
	MaxDeltaBytes int64
	// Interval is the worker's polling cadence (0 uses the default).
	Interval time.Duration
}

// DefaultCompactionPolicy returns the thresholds the serving daemon uses.
func DefaultCompactionPolicy() CompactionPolicy {
	return CompactionPolicy{MaxDeltaDocs: 64, MaxDeltaBytes: 1 << 20, Interval: 50 * time.Millisecond}
}

// withDefaults resolves zero fields.
func (p CompactionPolicy) withDefaults() CompactionPolicy {
	def := DefaultCompactionPolicy()
	if p.MaxDeltaDocs == 0 {
		p.MaxDeltaDocs = def.MaxDeltaDocs
	}
	if p.MaxDeltaBytes == 0 {
		p.MaxDeltaBytes = def.MaxDeltaBytes
	}
	if p.Interval == 0 {
		p.Interval = def.Interval
	}
	return p
}

// exceeded reports whether stats cross either compaction threshold.
func (p CompactionPolicy) exceeded(st IngestStats) bool {
	return st.DeltaDocs > p.MaxDeltaDocs || st.DeltaSymbols*8 > p.MaxDeltaBytes
}

// Compactor is the background compaction worker: it polls a sharded engine on
// the policy's cadence and folds deltas into the serving base whenever the
// thresholds are crossed, so query cost over base+delta stays bounded while
// appends continue.
type Compactor struct {
	target *ShardedEngine
	policy CompactionPolicy
	stop   chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	runs    int   // guarded by mu: compactions performed
	skipped int   // guarded by mu: polls below threshold
	lastErr error // guarded by mu: most recent compaction error
	stopped bool  // guarded by mu: Stop has completed
}

// StartCompactor launches the worker; Stop shuts it down.
func StartCompactor(t *ShardedEngine, p CompactionPolicy) *Compactor {
	c := &Compactor{
		target: t,
		policy: p.withDefaults(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.loop()
	return c
}

func (c *Compactor) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.policy.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			ran, err := c.target.CompactIfNeeded(c.policy)
			c.mu.Lock()
			switch {
			case err != nil && err != ErrCompacting:
				c.lastErr = err
			case ran:
				c.runs++
			default:
				c.skipped++
			}
			c.mu.Unlock()
		}
	}
}

// Stop shuts the worker down and waits for the in-flight poll, if any, to
// finish.  Idempotent.
func (c *Compactor) Stop() {
	c.mu.Lock()
	already := c.stopped
	c.stopped = true
	c.mu.Unlock()
	if already {
		return
	}
	close(c.stop)
	<-c.done
}

// Runs reports how many compactions the worker has performed and the most
// recent compaction error, if any.
func (c *Compactor) Runs() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs, c.lastErr
}
