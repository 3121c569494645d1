// Sensorlog: the paper's embedded-systems scenario (§III-C) — an IoT node
// buffers compressed telemetry on NVM and must survive power failures.  The
// example runs word count under operation-level persistence (§IV-E), pulls
// the power mid-traversal, and recovers: the redo log replays the committed
// operations onto the rebuilt counters, so no completed work is lost.
//
// This drives the crash machinery through the internal engine directly,
// since deliberately crashing mid-task is not part of the public API.
//
//	go run ./examples/sensorlog
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

func main() {
	// Telemetry: highly templated readings, the redundancy TADOC feeds on.
	d := dict.New()
	var tk dict.Tokenizer
	var files [][]uint32
	for node := 0; node < 6; node++ {
		var b strings.Builder
		for t := 0; t < 120; t++ {
			fmt.Fprintf(&b, "node %d reading temp %d humidity %d status ok ",
				node, 18+t%7, 40+t%11)
			if t%13 == 0 {
				fmt.Fprintf(&b, "status warn battery low node %d ", node)
			}
		}
		files = append(files, tk.EncodeString(d, b.String()))
	}
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		log.Fatal(err)
	}
	st := g.ComputeStats()
	fmt.Printf("telemetry: %d nodes, %d tokens compressed to %d symbols (%.1f%%)\n",
		st.Files, st.Expanded, st.BodySymbols,
		100*float64(st.BodySymbols)/float64(st.Expanded))

	// Operation-level persistence: every counter mutation is redo-logged
	// and fenced per operation, the durability an unattended sensor needs.
	opts := core.Options{Persistence: core.OpLevel}
	eng, err := core.New(g, d, opts)
	if err != nil {
		log.Fatal(err)
	}
	want, err := analytics.RunAs[map[uint32]uint64](eng, analytics.WordCountOp{})
	if err != nil {
		log.Fatal(err)
	}
	okID, _ := d.Lookup("ok")
	warnID, _ := d.Lookup("warn")
	fmt.Printf("committed run: ok=%d warn=%d (%d distinct words)\n",
		want[okID], want[warnID], len(want))

	// Power failure!  The device's volatile image is discarded; only what
	// was flushed (the init checkpoint, the redo log, compacted tables)
	// survives.
	if err := eng.Device().Crash(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- power failure --")

	recovered, info, err := core.Reopen(eng.Device(), d, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered at phase %d, replayed %d logged operations\n",
		info.Phase, info.Replayed)
	counts, _, ok := recovered.CommittedCounts()
	if !ok {
		log.Fatal("committed results not found after recovery")
	}
	if counts[okID] != want[okID] || counts[warnID] != want[warnID] {
		log.Fatalf("recovery diverged: ok=%d warn=%d", counts[okID], counts[warnID])
	}
	fmt.Printf("recovered counts intact: ok=%d warn=%d\n",
		counts[okID], counts[warnID])

	// The node resumes analytics on the recovered pool without re-reading
	// or re-compressing the telemetry.
	again, err := analytics.RunAs[map[uint32]uint64](recovered, analytics.WordCountOp{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed analytics on recovered pool: %d distinct words, consistent=%v\n",
		len(again), len(again) == len(want))
}
