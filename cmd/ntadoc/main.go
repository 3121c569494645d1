// Command ntadoc compresses text with TADOC and runs N-TADOC analytics on
// the compressed archive without decompression.
//
//	ntadoc compress -o corpus.tdc doc1.txt doc2.txt ...
//	ntadoc compress -shards 4 -o corpus.tdc docs/*.txt
//	ntadoc stats corpus.tdc
//	ntadoc analyze -task wordcount -top 20 corpus.tdc
//	ntadoc analyze -task seqcount -medium dram corpus.tdc
//	ntadoc analyze -task wordcount,sort,invertedindex corpus.tdc
//	ntadoc analyze -server http://localhost:8080 -task wordcount,sort
//	ntadoc decompress -dir out/ corpus.tdc
//	ntadoc inspect -dot corpus.tdc > dag.dot
//	ntadoc append -server http://localhost:8080 new1.txt new2.txt
//	ntadoc tail -server http://localhost:8080
//
// With -server, analyze queries a running ntadocd daemon instead of opening
// an archive locally; both paths shape the request through the same
// canonical batch spec, so a CLI query and a daemon query for the same task
// set are one batch.
//
// Tasks: wordcount, sort, termvector, invertedindex, seqcount, rankedindex.
// A comma-separated -task list runs as one fused batch over a single
// traversal of the compressed representation.
// Media: nvm (default, simulated persistent memory), dram (original TADOC),
// ssd, hdd.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntadoc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ntadoc <compress|stats|analyze|decompress|inspect|append|tail> [flags] ...")
	os.Exit(2)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	out := fs.String("o", "corpus.tdc", "output archive path")
	shards := fs.Int("shards", 1, "compress into this many independent shards (parallel build and queries; slightly worse compression)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("compress: no input files")
	}
	if *shards < 1 {
		return fmt.Errorf("compress: -shards must be at least 1")
	}
	docs := make([]ntadoc.Document, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		docs = append(docs, ntadoc.Document{Name: filepath.Base(path), Text: string(data)})
	}
	a, err := ntadoc.CompressSharded(docs, *shards)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := a.WriteTo(f)
	if err != nil {
		return err
	}
	st := a.Stats()
	shardNote := ""
	if a.NumShards() > 1 {
		shardNote = fmt.Sprintf(", %d shards", a.NumShards())
	}
	fmt.Printf("compressed %d documents: %d tokens -> %d grammar symbols (%.1f%%), %d rules%s, archive %d bytes\n",
		st.Documents, st.Tokens, st.GrammarSymbols, st.CompressionRate*100, st.Rules, shardNote, n)
	return f.Sync()
}

func loadArchive(path string) (*ntadoc.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ntadoc.ReadArchive(f)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: expected one archive path")
	}
	a, err := loadArchive(fs.Arg(0))
	if err != nil {
		return err
	}
	st := a.Stats()
	fmt.Printf("documents:        %d\n", st.Documents)
	if a.NumShards() > 1 {
		fmt.Printf("shards:           %d\n", a.NumShards())
	}
	fmt.Printf("rules:            %d\n", st.Rules)
	fmt.Printf("vocabulary:       %d\n", st.Vocabulary)
	fmt.Printf("tokens:           %d\n", st.Tokens)
	fmt.Printf("grammar symbols:  %d\n", st.GrammarSymbols)
	fmt.Printf("compression rate: %.1f%%\n", st.CompressionRate*100)
	return nil
}

func mediumFromFlag(name string) (ntadoc.Medium, error) {
	switch name {
	case "nvm":
		return ntadoc.MediumNVM, nil
	case "dram":
		return ntadoc.MediumDRAM, nil
	case "ssd":
		return ntadoc.MediumSSD, nil
	case "hdd":
		return ntadoc.MediumHDD, nil
	default:
		return 0, fmt.Errorf("unknown medium %q", name)
	}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	task := fs.String("task", "wordcount", "comma-separated list of wordcount|sort|termvector|invertedindex|seqcount|rankedindex")
	medium := fs.String("medium", "nvm", "nvm|dram|ssd|hdd")
	top := fs.Int("top", 20, "print at most this many result lines per task (0 = all)")
	pool := fs.String("pool", "", "file-backed NVM pool path prefix: shard i's pool lives at PATH.shardI (persists across runs)")
	serverURL := fs.String("server", "", "base URL of a running ntadocd daemon; queries it instead of opening an archive locally")
	fs.Parse(args)

	// Both execution paths shape the request the same way: the task list
	// reduces to a canonical batch spec — the canonicalization the daemon's
	// coalescer and result cache key on.  Results print in the order the
	// user asked for (deduplicated); execution order is the spec's.
	var printTasks []ntadoc.Task
	seen := make(map[ntadoc.Task]bool)
	var names []string
	for _, name := range strings.Split(*task, ",") {
		name = strings.TrimSpace(name)
		t, err := ntadoc.ParseTask(name)
		if err != nil {
			return err
		}
		names = append(names, name)
		if !seen[t] {
			seen[t] = true
			printTasks = append(printTasks, t)
		}
	}
	k := 0
	if len(printTasks) == 1 && printTasks[0] == ntadoc.TaskTermVectors {
		k = *top // single-task termvector: -top is the vector length
	}
	spec, err := ntadoc.ParseBatchSpec(names, k)
	if err != nil {
		return err
	}

	var res *ntadoc.BatchResult
	var docNames []string
	var eng *ntadoc.Engine
	if *serverURL != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("analyze: -server mode takes no archive path (the daemon owns the archive)")
		}
		res, docNames, err = queryDaemon(*serverURL, spec)
		if err != nil {
			return err
		}
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("analyze: expected one archive path")
		}
		a, err := loadArchive(fs.Arg(0))
		if err != nil {
			return err
		}
		m, err := mediumFromFlag(*medium)
		if err != nil {
			return err
		}
		eng, err = ntadoc.NewEngine(a, ntadoc.Options{
			Medium:      m,
			PoolPath:    *pool,
			NoSequences: !spec.NeedsSequences(),
		})
		if err != nil {
			return err
		}
		defer eng.Close()
		// The whole batch executes fused: the engine traverses its
		// representation once and feeds every task from the same reads.
		res, err = eng.RunSpec(spec)
		if err != nil {
			return err
		}
		docNames = a.DocumentNames()
	}

	for i, t := range printTasks {
		if len(printTasks) > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("== %s ==\n", t)
		}
		printTaskResult(t, res, docNames, *top)
	}

	if eng != nil {
		init, trav := eng.PhaseTimes()
		if init > 0 {
			dev, dram := eng.MemoryFootprint()
			fmt.Fprintf(os.Stderr, "phases: init %v, traversal %v; footprint: %d device bytes, %d DRAM bytes\n",
				init, trav, dev, dram)
		}
	}
	return nil
}

// queryDaemon runs the spec against an ntadocd daemon and converts the wire
// result back to the library form the shared printers render.
func queryDaemon(base string, spec ntadoc.BatchSpec) (*ntadoc.BatchResult, []string, error) {
	tasks := spec.Tasks()
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.String()
	}
	body, err := json.Marshal(server.Request{Tasks: names, TermVectorK: spec.TermVectorK()})
	if err != nil {
		return nil, nil, err
	}
	url := strings.TrimRight(base, "/") + "/v1/batch"
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, nil, fmt.Errorf("daemon: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var env server.Response
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, nil, fmt.Errorf("daemon: decoding response: %v", err)
	}
	var wire server.Result
	if err := json.Unmarshal(env.Result, &wire); err != nil {
		return nil, nil, fmt.Errorf("daemon: decoding result: %v", err)
	}
	res, docs := wire.BatchResult()
	fmt.Fprintf(os.Stderr, "daemon: generation %s, batch %s, cached=%v, coalesced=%v\n",
		env.Generation, env.Signature, env.Cached, env.Coalesced)
	return res, docs, nil
}

// limitTo caps n at top when top > 0.
func limitTo(n, top int) int {
	if top > 0 && n > top {
		return top
	}
	return n
}

// printTaskResult renders one task's slot of a BatchResult.
func printTaskResult(t ntadoc.Task, res *ntadoc.BatchResult, names []string, top int) {
	switch t {
	case ntadoc.TaskWordCount:
		type row struct {
			term string
			n    uint64
		}
		rows := make([]row, 0, len(res.WordCount))
		for w, n := range res.WordCount {
			rows = append(rows, row{w, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].term < rows[j].term
		})
		for _, r := range rows[:limitTo(len(rows), top)] {
			fmt.Printf("%10d  %s\n", r.n, r.term)
		}
	case ntadoc.TaskSort:
		for _, tc := range res.Sort[:limitTo(len(res.Sort), top)] {
			fmt.Printf("%-24s %d\n", tc.Term, tc.Count)
		}
	case ntadoc.TaskTermVectors:
		for i, vec := range res.TermVectors {
			fmt.Printf("%s:", names[i])
			for _, tc := range vec {
				fmt.Printf(" %s(%d)", tc.Term, tc.Count)
			}
			fmt.Println()
		}
	case ntadoc.TaskInvertedIndex:
		words := make([]string, 0, len(res.InvertedIndex))
		for w := range res.InvertedIndex {
			words = append(words, w)
		}
		sort.Strings(words)
		for _, w := range words[:limitTo(len(words), top)] {
			fmt.Printf("%-24s %v\n", w, res.InvertedIndex[w])
		}
	case ntadoc.TaskSequenceCount:
		type row struct {
			seq string
			n   uint64
		}
		rows := make([]row, 0, len(res.SequenceCount))
		for q, n := range res.SequenceCount {
			rows = append(rows, row{q, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].seq < rows[j].seq
		})
		for _, r := range rows[:limitTo(len(rows), top)] {
			fmt.Printf("%10d  %s\n", r.n, r.seq)
		}
	case ntadoc.TaskRankedInvertedIndex:
		seqs := make([]string, 0, len(res.RankedInvertedIndex))
		for q := range res.RankedInvertedIndex {
			seqs = append(seqs, q)
		}
		sort.Strings(seqs)
		for _, q := range seqs[:limitTo(len(seqs), top)] {
			fmt.Printf("%-36s", q)
			for _, dc := range res.RankedInvertedIndex[q] {
				fmt.Printf(" %s(%d)", dc.Doc, dc.Count)
			}
			fmt.Println()
		}
	}
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	dir := fs.String("dir", ".", "output directory")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("decompress: expected one archive path")
	}
	a, err := loadArchive(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for _, doc := range a.Decompress() {
		name := doc.Name
		if name == "" {
			name = "doc.txt"
		}
		path := filepath.Join(*dir, filepath.Base(name))
		if err := os.WriteFile(path, []byte(doc.Text), 0o644); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dot := fs.Bool("dot", false, "emit the grammar DAG in Graphviz DOT format")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: expected one archive path")
	}
	a, err := loadArchive(fs.Arg(0))
	if err != nil {
		return err
	}
	if *dot {
		return a.WriteDOT(os.Stdout)
	}
	st := a.Stats()
	fmt.Printf("%d rules over %d documents; %d grammar symbols for %d tokens\n",
		st.Rules, st.Documents, st.GrammarSymbols, st.Tokens)
	return nil
}
