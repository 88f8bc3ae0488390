package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// goldenPath holds the paper workload's recorded measurands, keyed by
// goldenKey. Refresh it with `perfbench golden --seeds 1-32` after a
// change that deliberately alters what the pipeline measures.
const goldenPath = "perfbench/testdata/paper_golden.json"

func goldenKey(domains int, seed int64) string {
	return fmt.Sprintf("d%d/s%d", domains, seed)
}

// loadGolden reads the recorded measurands; a missing file is empty.
func loadGolden(root string) map[string]json.RawMessage {
	out := map[string]json.RawMessage{}
	b, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return out
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return map[string]json.RawMessage{}
	}
	return out
}

// formatGolden writes one seed per line, in key order, so a re-record
// diffs line by line.
func formatGolden(golden map[string]json.RawMessage) []byte {
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		fmt.Fprintf(&b, "%q: %s", k, golden[k])
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// diffJSON names the top-level fields that differ between two
// measurand objects.
func diffJSON(want, got []byte) string {
	var a, b map[string]json.RawMessage
	if json.Unmarshal(want, &a) != nil || json.Unmarshal(got, &b) != nil {
		return "undecodable measurands"
	}
	var diff []string
	for k, v := range a {
		if string(b[k]) != string(v) {
			diff = append(diff, fmt.Sprintf("%s: want %s, got %s", k, v, b[k]))
		}
	}
	sort.Strings(diff)
	if len(diff) == 0 {
		return "field order differs"
	}
	return fmt.Sprint(diff)
}

// runGolden records the paper measurands of every pipeline seed the
// given run seeds rotate through. It runs each pipeline twice and
// records a seed only when both runs agree: a disagreement means a
// measurand depends on timing; it is reported, the seed is skipped,
// and the exit status is 1.
func runGolden(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seedsFlag := fs.String("seeds", "1-32", "seeds to record (e.g. 1-32 or 1,5,9)")
	domains := fs.Int("domains", paperDomains, "domains per population")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	root, _ := os.Getwd()
	golden := loadGolden(root)
	workDir := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	status := 0
	for _, seed := range seeds {
		p := newPaperRunner(runConfig{Seed: seed, Scale: *domains, Root: root}, workDir)
		for _, in := range p.ins {
			if recordSeed(p, in, golden, *domains, stdout, stderr) != nil {
				status = 1
			}
		}
	}
	path := filepath.Join(root, goldenPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, formatGolden(golden), 0o644); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return status
}

// recordSeed runs in's pipeline twice and stores its measurands in golden
// when the two agree.
func recordSeed(p *paperRunner, in *paperInput, golden map[string]json.RawMessage, domains int, stdout, stderr io.Writer) error {
	var got [2][]byte
	for i := range got {
		pl, err := p.pipeline(context.Background(), nil, nil, in)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", in.seed, err)
			return err
		}
		got[i] = pl.measurands
	}
	if string(got[0]) != string(got[1]) {
		fmt.Fprintf(stderr, "perfbench: seed %d: two pipelines disagree: %s\n", in.seed, diffJSON(got[0], got[1]))
		return errors.New("pipelines disagree")
	}
	golden[goldenKey(domains, in.seed)] = got[0]
	fmt.Fprintf(stdout, "recorded %s\n", goldenKey(domains, in.seed))
	return nil
}
