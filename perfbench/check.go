package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

// openReference builds an engine over the archive file the daemon serves,
// with the daemon's default options: the reference the served results are
// compared against.
func openReference(path string) (*ntadoc.Engine, error) {
	a, err := readArchive(path)
	if err != nil {
		return nil, err
	}
	return ntadoc.NewEngine(a, ntadoc.Options{})
}

// encodeSpec runs a batch on a session and returns the wire result bytes
// the daemon would serve for it.
func encodeSpec(eng *ntadoc.Engine, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error) {
	res, err := sess.RunSpec(context.Background(), spec)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", spec.Signature(), err)
	}
	return server.EncodeResult(res, eng.DocumentNames())
}

// fetchResult fetches a batch from the daemon and returns its decoded
// envelope's result bytes.
func fetchResult(d *daemon, spec ntadoc.BatchSpec) ([]byte, error) {
	resp, err := d.client.Get(d.base + queryPath(spec))
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", spec.Signature(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fetching %s: %s: %s", spec.Signature(), resp.Status, strings.TrimSpace(string(msg)))
	}
	var env server.Response
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", spec.Signature(), err)
	}
	if env.Signature != spec.Signature() {
		return nil, fmt.Errorf("daemon answered %s with signature %s", spec.Signature(), env.Signature)
	}
	return env.Result, nil
}

// checkServed fetches every distinct served batch once and compares its
// result byte for byte with the reference engine's, on one worker per
// client.  It returns the number of batches checked and the mismatches.
func checkServed(d *daemon, ref *ntadoc.Engine, served map[string]ntadoc.BatchSpec) (checked int, mismatches []string, err error) {
	sigs := make([]string, 0, len(served))
	for sig := range served {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	bad := make([]bool, len(sigs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for wk := 0; wk < clients; wk++ {
		sess, err := ref.NewSession()
		if err != nil {
			return 0, nil, err
		}
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(sigs); i += clients {
				if bad[i], errs[wk] = compareOne(d, ref, sess, served[sigs[i]]); errs[wk] != nil {
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	for i, b := range bad {
		if b {
			mismatches = append(mismatches, sigs[i])
		}
	}
	return len(sigs), mismatches, nil
}

func compareOne(d *daemon, ref *ntadoc.Engine, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) (bool, error) {
	want, err := encodeSpec(ref, sess, spec)
	if err != nil {
		return false, err
	}
	got, err := fetchResult(d, spec)
	if err != nil {
		// A daemon that cannot answer a batch it served is a wrong result,
		// not a benchmark failure.
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
		return true, nil
	}
	return !bytes.Equal(got, want), nil
}

// checkIngest verifies the daemon after the append stream: every
// acknowledged document is visible, in acknowledgement order after the base,
// and every default-mix batch — the six ops alone and fused — matches a
// from-scratch rebuild over base + acknowledged documents.
func checkIngest(d *daemon, c corpus, shards int, acked [][]ntadoc.Document) (checked int, mismatches []string, err error) {
	wantNames := append([]string(nil), c.names...)
	dct := ntadoc.NewDictionary()
	for _, w := range c.words {
		dct.Intern(w)
	}
	tokens := append([][]uint32(nil), c.tokens...)
	for _, batch := range acked {
		for _, doc := range batch {
			var t []uint32
			for _, w := range strings.Fields(doc.Text) {
				t = append(t, dct.Intern(w))
			}
			tokens = append(tokens, t)
			wantNames = append(wantNames, doc.Name)
		}
	}
	names, err := daemonDocuments(d)
	if err != nil {
		return 0, nil, err
	}
	checked++
	if !reflect.DeepEqual(names, wantNames) {
		mismatches = append(mismatches, fmt.Sprintf("documents: daemon has %d, want %d", len(names), len(wantNames)))
	}

	a, err := ntadoc.CompressTokensSharded(tokens, wantNames, dct, shards)
	if err != nil {
		return checked, mismatches, fmt.Errorf("rebuilding corpus: %w", err)
	}
	ref, err := ntadoc.NewEngine(a, ntadoc.Options{})
	if err != nil {
		return checked, mismatches, err
	}
	defer ref.Close()
	sess, err := ref.NewSession()
	if err != nil {
		return checked, mismatches, err
	}
	for _, spec := range defaultMix() {
		bad, err := compareOne(d, ref, sess, spec)
		if err != nil {
			return checked, mismatches, err
		}
		checked++
		if bad {
			mismatches = append(mismatches, spec.Signature())
		}
	}
	return checked, mismatches, nil
}

// daemonDocuments reads the daemon's document name table.
func daemonDocuments(d *daemon) ([]string, error) {
	resp, err := d.client.Get(d.base + "/debug/engine")
	if err != nil {
		return nil, fmt.Errorf("fetching /debug/engine: %w", err)
	}
	defer resp.Body.Close()
	var info struct {
		Documents []string `json:"documents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("decoding /debug/engine: %w", err)
	}
	return info.Documents, nil
}
