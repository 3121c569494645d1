// Command perfbench is the repository benchmark.  It builds a workload's
// archive through the public API, drives the real ntadocd daemon over
// loopback HTTP with closed-loop clients, checks every served result
// against a reference engine, and prints the end-to-end metrics; with
// -trace 1 it also replays the same seeded operations in-process, timing the
// calls into each layer, and prints the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload serve-miss --seed 3 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A full report with run metadata and sample counts is written to
// <workdir>/results.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.  Samples is the count behind a percentile
// or median (zero for a plain count or ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one invocation measured.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds figures printed for reading but not gated.
	Extra    map[string]metric `json:"extra,omitempty"`
	Meta     meta              `json:"meta"`
	Mismatch []string          `json:"mismatches,omitempty"`
}

// meta is the run metadata recorded with every result.
type meta struct {
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"source_sha256"`
	GoVersion    string   `json:"go_version"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Clients      int      `json:"clients"`
	Seconds      int      `json:"seconds"`
	Dataset      string   `json:"dataset"`
	Files        int      `json:"files"`
	Tokens       int      `json:"tokens"`
	Vocab        int      `json:"vocab"`
	Shards       int      `json:"shards"`
	StreamDocs   int      `json:"stream_docs,omitempty"`
	DaemonFlags  []string `json:"daemon_flags"`
	StartedAt    string   `json:"started_at"`
}

func run() error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 20, "timed window length in seconds")
	trace := fl.Int("trace", 0, "1 replays the workload in-process and reports per-layer metrics")
	bin := fl.String("daemon", "", "path of the built ntadocd binary")
	workdir := fl.String("workdir", ".bench_build", "directory for archives, traces and reports")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *bin == "" {
		return fmt.Errorf("-daemon is required")
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	if err := os.MkdirAll(filepath.Join(*workdir, "results"), 0o755); err != nil {
		return err
	}

	c := genCorpus(w, *seed, streamDocs(w, *seconds))
	b := &bench{
		w: w, seed: *seed, c: c, bin: *bin, workdir: *workdir,
		window: time.Duration(*seconds) * time.Second,
	}
	rep := &report{
		Workload: w.name, Seed: *seed, Trace: *trace == 1,
		Metrics: map[string]metric{}, Extra: map[string]metric{},
		Meta: meta{
			Commit: commit(), SourceSHA256: sourceHash(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Clients: clients, Seconds: *seconds, Dataset: w.corpus.Name,
			Files: len(c.tokens), Tokens: c.tokenCount(), Vocab: len(c.words),
			Shards: w.shards, StreamDocs: len(c.stream), DaemonFlags: b.daemonFlags(),
			StartedAt: time.Now().UTC().Format(time.RFC3339),
		},
	}
	if *trace == 1 {
		err = b.traced(rep)
	} else {
		err = b.untraced(rep)
	}
	if err != nil {
		return err
	}
	rep.Correct = len(rep.Mismatch) == 0 && rep.Failed == 0
	return emit(rep, *workdir)
}

// emit prints the readable report, writes the full report file, and prints
// the result line last.  A run with failures or wrong results still prints
// its result, then exits non-zero.
func emit(rep *report, workdir string) error {
	show := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, n := range names {
			m := ms[n]
			samples := ""
			if m.Samples > 0 {
				samples = fmt.Sprintf("n=%d", m.Samples)
			}
			fmt.Printf("  %-34s %16.6f %-6s %s\n", n, m.Value, m.Unit, samples)
		}
	}
	fmt.Printf("perfbench %s seed=%d trace=%v attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed)
	show("metrics:", rep.Metrics)
	if len(rep.Extra) > 0 {
		show("not gated:", rep.Extra)
	}
	for _, m := range rep.Mismatch {
		fmt.Println("MISMATCH", m)
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(workdir, "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, btoi(rep.Trace)))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	metaLine, err := json.Marshal(rep.Meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", metaLine)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for n, m := range rep.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return fmt.Errorf("%d failed operations, %d wrong results", rep.Failed, len(rep.Mismatch))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// commit is the checkout's git commit, or "none" when the checkout is not
// the root of a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the checkout's Go sources and module files: it
// identifies the code measured where no git commit is available.
func sourceHash() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply not hashed
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
