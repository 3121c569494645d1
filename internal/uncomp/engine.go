// Package uncomp implements the paper's Fig 5 baseline: text analytics over
// uncompressed, dictionary-encoded tokens resident on a storage device (NVM
// in the headline comparison).  No compression technique is applied beyond
// the dictionary conversion, matching the paper's baseline configuration;
// every task is a sequential scan of the token stream with intermediate
// results in ordinary DRAM structures.  Tasks plug in as analytics.Op folds:
// RunOps makes one pass over the device-resident tokens and feeds every op
// in the batch from the same scan, so a fused batch reads each token once
// where sequential runs read it once per task.
package uncomp

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Engine scans device-resident tokens.  It implements analytics.Executor.
type Engine struct {
	dev   nvm.Device
	d     *dict.Dictionary
	acc   nvm.Accessor
	offs  []int64 // token offset of each file's start; offs[len] = total
	meter metrics.Meter

	scanBuf []uint32 // scanFile scratch, reused across files
}

var _ analytics.Executor = (*Engine)(nil)

// tokenBytes is the stored width of one token.
const tokenBytes = 4

// RequiredSize returns the device bytes needed to load the given corpus.
func RequiredSize(files [][]uint32) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f))
	}
	return n * tokenBytes
}

// Load writes the corpus onto the device and returns an engine over it.
// This is the baseline's initialization phase: the dictionary-encoded text
// is written sequentially to the device and flushed.
func Load(dev nvm.Device, d *dict.Dictionary, files [][]uint32) (*Engine, error) {
	need := RequiredSize(files)
	if dev.Size() < need {
		return nil, fmt.Errorf("uncomp: device %d bytes, need %d", dev.Size(), need)
	}
	e := &Engine{
		dev:  dev,
		d:    d,
		acc:  nvm.NewAccessor(dev, 0, need),
		offs: make([]int64, len(files)+1),
	}
	var tok int64
	for i, f := range files {
		e.offs[i] = tok
		// Write in chunks to keep allocation bounded.
		const chunk = 1 << 14
		for start := 0; start < len(f); start += chunk {
			end := start + chunk
			if end > len(f) {
				end = len(f)
			}
			e.acc.PutUint32s((tok+int64(start))*tokenBytes, f[start:end])
		}
		tok += int64(len(f))
	}
	e.offs[len(files)] = tok
	e.meter.Charge(tok, metrics.CostScanToken)
	if need > 0 {
		if err := e.acc.Flush(0, need); err != nil {
			return nil, err
		}
	}
	return e, dev.Drain()
}

// NumFiles returns the number of loaded documents.
func (e *Engine) NumFiles() int { return len(e.offs) - 1 }

// TotalTokens returns the corpus length in tokens.
func (e *Engine) TotalTokens() int64 { return e.offs[len(e.offs)-1] }

// scanFile streams file fi's tokens in batches to fn.
func (e *Engine) scanFile(fi int, fn func(tokens []uint32)) {
	start, end := e.offs[fi], e.offs[fi+1]
	const batch = 1 << 13
	if e.scanBuf == nil {
		e.scanBuf = make([]uint32, batch)
	}
	buf := e.scanBuf
	for pos := start; pos < end; pos += batch {
		n := end - pos
		if n > batch {
			n = batch
		}
		e.acc.Uint32s(pos*tokenBytes, buf[:n])
		fn(buf[:n])
	}
}

// Sequence accumulators key windows by a packed uint64 whenever the
// vocabulary fits packBits per token: Go maps hash 8-byte keys through a
// fast path that the 12-byte Seq array misses.  Packed and generic scans
// emit the same windows and charge identically; env.SeqOf converts keys
// back at fold time.
const packBits = 21

func (e *Engine) canPackSeq() bool {
	return analytics.SeqLen == 3 && e.d.Len() <= 1<<packBits
}

func unpackSeq(pk uint64) analytics.Seq {
	const m = 1<<packBits - 1
	return analytics.Seq{
		uint32(pk >> (2 * packBits)),
		uint32((pk >> packBits) & m),
		uint32(pk & m),
	}
}

// numWindows returns how many SeqLen-windows file fi emits.
func (e *Engine) numWindows(fi int) int64 {
	n := e.offs[fi+1] - e.offs[fi] - analytics.SeqLen + 1
	if n < 0 {
		return 0
	}
	return n
}

// opEnv adapts the engine to analytics.Env.  seqOf is unpackSeq when windows
// are packed, interner resolution otherwise.
type opEnv struct {
	e     *Engine
	seqOf func(uint64) analytics.Seq
}

func (v opEnv) Dict() *dict.Dictionary       { return v.e.d }
func (v opEnv) NumFiles() int                { return v.e.NumFiles() }
func (v opEnv) SeqOf(k uint64) analytics.Seq { return v.seqOf(k) }
func (v opEnv) Charge(n, perOp int64)        { v.e.meter.Charge(n, perOp) }

// fileWordView is the per-file word counter handed to folds: counts live in
// a vocabulary-sized array, touched lists the distinct words in
// first-occurrence order.
type fileWordView struct {
	counts  []uint64
	touched []uint32
}

func (c fileWordView) Len() int64 { return int64(len(c.touched)) }
func (c fileWordView) Range(fn func(k, v uint64) bool) {
	for _, w := range c.touched {
		if !fn(uint64(w), c.counts[w]) {
			return
		}
	}
}

// RunOps implements analytics.Executor with one fused pass: every op in the
// batch is fed from the same token scan.  Per-token CPU work is charged per
// accumulator (each op class still hashes every token), but the scan itself
// — and with it the modeled device traffic — happens once for the whole
// batch instead of once per task.
func (e *Engine) RunOps(ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	packed := e.canPackSeq()
	si := &analytics.SeqInterner{}
	env := opEnv{e: e}
	if packed {
		env.seqOf = unpackSeq
	} else {
		env.seqOf = si.SeqOf
	}
	folds := make([]analytics.Fold, len(ops))
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

	// Counting goes through vocabulary-sized arrays rather than maps; the
	// charged hash-op cost per token is unchanged — only host wall-clock
	// differs.
	var gw, fw []uint64
	var touched []uint32
	if len(globalWord) > 0 {
		gw = make([]uint64, e.d.Len())
	}
	if len(fileWord) > 0 {
		fw = make([]uint64, e.d.Len())
	}
	var gseq map[uint64]uint64
	if len(globalSeq) > 0 {
		gseq = make(map[uint64]uint64)
	}
	scanSeqs := len(globalSeq)+len(fileSeq) > 0
	// Each word-keyed accumulator costs one hash op per token; the scan-token
	// cost is charged once per token regardless of batch width.
	wordAccums := int64(0)
	if gw != nil {
		wordAccums++
	}
	if fw != nil {
		wordAccums++
	}

	const packMask = 1<<(2*packBits) - 1
	for fi := 0; fi < e.NumFiles(); fi++ {
		var fseq map[uint64]uint64
		if len(fileSeq) > 0 {
			fseq = make(map[uint64]uint64)
		}
		// Rolling window state, maintained across scan batches.
		var pk uint64
		warm := 0
		var window []uint32
		e.scanFile(fi, func(toks []uint32) {
			e.meter.Charge(int64(len(toks)), metrics.CostScanToken)
			if wordAccums > 0 {
				e.meter.Charge(int64(len(toks))*wordAccums, metrics.CostHashOp)
			}
			for _, w := range toks {
				if gw != nil {
					gw[w]++
				}
				if fw != nil {
					if fw[w] == 0 {
						touched = append(touched, w)
					}
					fw[w]++
				}
				if !scanSeqs {
					continue
				}
				var key uint64
				ready := false
				if packed {
					pk = (pk&packMask)<<packBits | uint64(w)
					if warm < analytics.SeqLen-1 {
						warm++
					} else {
						key, ready = pk, true
					}
				} else {
					window = append(window, w)
					if len(window) > analytics.SeqLen {
						copy(window, window[1:])
						window = window[:analytics.SeqLen]
					}
					if len(window) == analytics.SeqLen {
						var q analytics.Seq
						copy(q[:], window)
						key, ready = si.Key(q), true
					}
				}
				if !ready {
					continue
				}
				if gseq != nil {
					gseq[key]++
				}
				if fseq != nil {
					fseq[key]++
				}
			}
		})
		// One charge per file covers every emitted window: Charge is linear
		// in its op count, so this equals per-window charges.
		if gseq != nil {
			e.meter.Charge(e.numWindows(fi), metrics.CostSeqOp)
		}
		if len(fileSeq) > 0 {
			e.meter.Charge(e.numWindows(fi), metrics.CostSeqOp+metrics.CostHashOp)
		}
		if fw != nil {
			view := fileWordView{counts: fw, touched: touched}
			for _, i := range fileWord {
				if err := folds[i].File(uint32(fi), view); err != nil {
					return nil, err
				}
			}
			for _, w := range touched {
				fw[w] = 0
			}
			touched = touched[:0]
		}
		if fseq != nil {
			view := analytics.MapCounts(fseq)
			for _, i := range fileSeq {
				if err := folds[i].File(uint32(fi), view); err != nil {
					return nil, err
				}
			}
		}
	}

	if gw != nil {
		kv := analytics.KVCounts{}
		for w, c := range gw {
			if c != 0 {
				kv.Keys = append(kv.Keys, uint64(w))
				kv.Vals = append(kv.Vals, c)
			}
		}
		for _, i := range globalWord {
			if err := folds[i].Global(kv); err != nil {
				return nil, err
			}
		}
	}
	if gseq != nil {
		view := analytics.MapCounts(gseq)
		for _, i := range globalSeq {
			if err := folds[i].Global(view); err != nil {
				return nil, err
			}
		}
	}

	results := make([]any, len(ops))
	for i := range ops {
		var err error
		if results[i], err = folds[i].Finish(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunOp implements analytics.Executor.
func (e *Engine) RunOp(op analytics.Op) (any, error) {
	results, err := e.RunOps([]analytics.Op{op})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Meter exposes the engine's modeled CPU meter for measurement.
func (e *Engine) Meter() *metrics.Meter { return &e.meter }
