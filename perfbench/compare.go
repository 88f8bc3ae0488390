package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// exitIncomparable is compare's exit code when the two sides were
// measured on different hosts or toolchains.
const exitIncomparable = 3

// runCompare reads two files of record lines (the base's and the
// change's runs; other lines are skipped), and for
// every workload and end-to-end metric prints each side's median and
// quartiles and whether the change is worse than the base by more than
// the metric's bound. It refuses to pair records whose nproc,
// GOMAXPROCS or Go version differ. A change fails when any of its runs
// failed its oracle, or when it has no correct run of a workload the
// base has.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := comparable(append(append([]record(nil), base...), head...)); err != nil {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %v\n", err)
		return exitIncomparable
	}
	failed := false
	for _, w := range workloadsOf(base, head) {
		bOK, bBad := correctRuns(base, w)
		hOK, hBad := correctRuns(head, w)
		if bBad > 0 {
			fmt.Fprintf(stdout, "%-10s base: %d of %d runs failed their oracle; only the correct ones are compared\n", w, bBad, len(bOK)+bBad)
		}
		switch {
		case hBad > 0:
			fmt.Fprintf(stdout, "%-10s head: %d of %d runs failed their oracle: INCORRECT\n", w, hBad, len(hOK)+hBad)
			failed = true
		case len(hOK) == 0 && len(bOK) > 0:
			fmt.Fprintf(stdout, "%-10s head: no runs of a workload the base has: MISSING\n", w)
			failed = true
		}
		if len(bOK) == 0 || len(hOK) == 0 {
			continue
		}
		for _, d := range endToEnd {
			b := valuesOf(bOK, d.Name)
			h := valuesOf(hOK, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bm, hm := median(b), median(h)
			worse := hm < bm
			if d.Better == "lower" {
				worse = hm > bm
			}
			change := ratio(hm-bm, bm)
			verdict := "ok"
			if worse && abs(change) > d.Bound {
				verdict = "REGRESSION"
				failed = true
			}
			fmt.Fprintf(stdout, "%-10s %-14s base %s  head %s  change %+.1f%% (bound %.0f%%) %s\n",
				w, d.Name, quartiles(b), quartiles(h), 100*change, 100*d.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// comparable checks that every record shares nproc, GOMAXPROCS and Go
// version.
func comparable(recs []record) error {
	if len(recs) == 0 {
		return errors.New("no records")
	}
	c0 := recs[0].Context
	for _, r := range recs[1:] {
		c := r.Context
		switch {
		case c.NProc != c0.NProc:
			return fmt.Errorf("nproc %d vs %d", c0.NProc, c.NProc)
		case c.GOMAXPROCS != c0.GOMAXPROCS:
			return fmt.Errorf("GOMAXPROCS %d vs %d", c0.GOMAXPROCS, c.GOMAXPROCS)
		case c.GoVersion != c0.GoVersion:
			return fmt.Errorf("Go version %s vs %s", c0.GoVersion, c.GoVersion)
		}
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Context.GoVersion == "" {
			continue // not a record line: a result line or a log line
		}
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func workloadsOf(sets ...[]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range sets {
		for _, r := range s {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

// correctRuns splits the records of workload into those whose
// oracle passed and a count of those whose oracle failed.
func correctRuns(recs []record, workload string) (ok []record, bad int) {
	for _, r := range recs {
		switch {
		case r.Workload != workload:
		case r.Result.Correct:
			ok = append(ok, r)
		default:
			bad++
		}
	}
	return ok, bad
}

func valuesOf(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles renders a sample's median and quartiles with its size.
func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g..%.4g] n=%d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
