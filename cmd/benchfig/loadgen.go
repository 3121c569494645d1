package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/loadgen"
)

// Loadgen flags.  The loadgen figure is excluded from -fig all: it measures
// wall-clock serving latency, not modeled device time, so it only means
// something when run deliberately.
var (
	loadWorkers  = flag.Int("loadworkers", 64, "loadgen: peak concurrent client sessions")
	loadRequests = flag.Int("loadrequests", 512, "loadgen: total requests per load point")
	loadDataset  = flag.String("loaddataset", "A", "loadgen: dataset analogue to serve")
	loadOut      = flag.String("loadout", "BENCH_loadgen.json", "loadgen: result file ('' disables)")
)

// loadgenCell is one JSON row of BENCH_loadgen.json.
type loadgenCell struct {
	Workers       int     `json:"workers"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	CacheHitPct   float64 `json:"cache_hit_pct"`
	CoalescedPct  float64 `json:"coalesced_pct"`
}

func figLoadgen(specs []datagen.Spec) error {
	var spec datagen.Spec
	found := false
	for _, s := range specs {
		if s.Name == *loadDataset {
			spec, found = s, true
		}
	}
	if !found {
		return fmt.Errorf("loadgen: unknown dataset %q", *loadDataset)
	}
	header(fmt.Sprintf("loadgen: serving-layer throughput/latency, dataset %s, %d requests per point", spec.Name, *loadRequests))

	counts := []int{1, 8, *loadWorkers}
	cells := make([]loadgenCell, 0, len(counts))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tthroughput\tp50\tp95\tp99\tmax\tcache\tcoalesced\terrors")
	seen := map[int]bool{}
	for _, w := range counts {
		if w < 1 || w > *loadWorkers || seen[w] {
			continue
		}
		seen[w] = true
		res, err := loadgen.Run(spec, loadgen.Options{
			Workers:  w,
			Requests: *loadRequests,
			Replicas: 1,
		})
		if err != nil {
			return fmt.Errorf("loadgen (workers=%d): %w", w, err)
		}
		fmt.Fprintf(tw, "%d\t%.0f req/s\t%s\t%s\t%s\t%s\t%.0f%%\t%.0f%%\t%d\n",
			res.Workers, res.Throughput, res.P50.Round(10*time.Microsecond),
			res.P95.Round(10*time.Microsecond), res.P99.Round(10*time.Microsecond),
			res.Max.Round(10*time.Microsecond),
			res.CacheHitRate*100, res.CoalescedRate*100, res.Errors)
		cells = append(cells, loadgenCell{
			Workers:       res.Workers,
			Requests:      res.Requests,
			Errors:        res.Errors,
			WallMs:        msRound(res.Wall),
			ThroughputRPS: math.Round(res.Throughput*10) / 10,
			P50Ms:         msRound(res.P50),
			P95Ms:         msRound(res.P95),
			P99Ms:         msRound(res.P99),
			MaxMs:         msRound(res.Max),
			CacheHitPct:   math.Round(res.CacheHitRate*1000) / 10,
			CoalescedPct:  math.Round(res.CoalescedRate*1000) / 10,
		})
	}
	tw.Flush()
	if *loadOut == "" {
		return nil
	}
	return writeLoadgenJSON(*loadOut, spec.Name, cells)
}

// msRound is ms() rounded to two decimals for the JSON cells.
func msRound(d time.Duration) float64 {
	return math.Round(ms(d)*100) / 100
}

func writeLoadgenJSON(path, dataset string, cells []loadgenCell) error {
	doc := struct {
		Benchmark   string        `json:"benchmark"`
		Date        string        `json:"date"`
		Machine     string        `json:"machine"`
		Methodology string        `json:"methodology"`
		Dataset     string        `json:"dataset"`
		Cells       []loadgenCell `json:"cells"`
	}{
		Benchmark: "benchfig -fig loadgen",
		Date:      time.Now().Format("2006-01-02"),
		Machine: fmt.Sprintf("shared Linux container (nproc=%d, %s); wall-clock latencies are noisy under external load",
			runtime.NumCPU(), runtime.Version()),
		Methodology: fmt.Sprintf("The serving layer (internal/server: session pool, singleflight coalescer, "+
			"LRU result cache) stood up over a 2-shard replicated archive of dataset %s and driven over real "+
			"loopback HTTP by N concurrent clients cycling through the default mix (each task individually plus "+
			"the fully fused six-task batch).  Clients count cache hits and coalesces from the Ntadoc-Cache "+
			"response header and drain bodies without decoding them.  Unlike the modeled figures, latencies here are client-observed "+
			"wall-clock, so absolute numbers vary with the machine; the shape (cache-dominated p50, "+
			"traversal-bound tail) is the signal.", dataset),
		Dataset: dataset,
		Cells:   cells,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Sync()
}
