// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload from a seed, checks the program's outputs against their
// oracles, and prints every metric by name with its unit; the last
// line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper|bulk-cold|bulk-warm --seed N --seconds S --trace 0|1
//	perfbench compare BASE.jsonl HEAD.jsonl
//	perfbench golden --seeds 1-32
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: the first half of the run is untraced under a CPU
// profile, the second half pairs an untraced and a traced round over
// the same input, and the difference in throughput within the pairs is
// the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sendervalid/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "golden":
			return runGolden(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: paper, bulk-cold or bulk-warm")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measurement time")
		traceOn  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := checkTree(root); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Traced:   *traceOn == 1,
		Root:     root,
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	rec, err := execute(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "%s\n", line)
	final, _ := json.Marshal(rec.Result)
	fmt.Fprintf(stdout, "%s\n", final)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// checkTree refuses to run outside a full checkout: the benchmark
// builds and drives the program's packages, so a tree holding only the
// benchmark's own files has nothing to measure.
func checkTree(root string) error {
	for _, p := range []string{"go.mod", "internal/experiment", "internal/bulkspf"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("not a sendervalid checkout (missing %s): run from the repository root", p)
		}
	}
	return nil
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Root     string
	// Scale overrides the workload's input size (domains per
	// population for paper, tuples per round for bulk); zero keeps
	// the benchmark's fixed size. Tests use it for tiny smoke runs.
	Scale int
}

// minRounds is the least number of rounds (pairs, in the traced half)
// a measurement takes, however short --seconds is.
const minRounds = 3

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one run, printed on the line before
// the result line; compare reads files of these lines.
type record struct {
	Context  hostContext        `json:"context"`
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Rounds   []roundSummary     `json:"rounds"`
	Detail   map[string]any     `json:"detail,omitempty"`
	Oracle   []string           `json:"oracle_failures,omitempty"`
	Values   map[string]float64 `json:"values"`
	Result   result             `json:"result"`
}

// roundSummary is one measured round as recorded. Kind is "untraced",
// "profiled" (untraced under the CPU profiler) or "traced".
type roundSummary struct {
	Kind     string  `json:"kind"`
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	OpsPerS  float64 `json:"ops_per_s"`
	CPUUSOp  float64 `json:"cpu_us_per_op"`
	Problems int     `json:"oracle_failures"`
}

// workloadRunner is one workload's input and round loop.
type workloadRunner interface {
	// round runs one measured unit of work over the workload's input
	// number input (taken modulo the number of inputs) under inst. It
	// returns the round's measurements; oracle violations are reported
	// in roundResult.problems, not as an error.
	round(ctx context.Context, input int, inst *instruments, prof *profiler) (*roundResult, error)
	// setupOnly performs the set-up and teardown of a round over input
	// with no work in between and returns the set-up time.
	setupOnly(ctx context.Context, input int) (time.Duration, error)
	// finish adds the workload's run-level per-layer values and
	// details.
	finish(vals map[string]float64, detail map[string]any)
}

// roundResult is what one round measured.
type roundResult struct {
	setup time.Duration
	// extraSetup are further set-up samples taken after the round, so
	// the set-up median rests on many samples even when rounds are
	// few.
	extraSetup []time.Duration
	timed      span // the timed parts only (setup excluded)
	ops        int
	failed     int
	problems   []string
	// counters is the round's telemetry, snapshotted when the round
	// ends: every round registers the program's counters, traced or
	// not. A snapshot, not the registry, so a finished round's objects
	// can be collected.
	counters []telemetry.FamilySnapshot
}

func newRunner(cfg runConfig, workDir string) (workloadRunner, error) {
	switch cfg.Workload {
	case "paper":
		return newPaperRunner(cfg, workDir), nil
	case "bulk-cold":
		return newBulkRunner(cfg, workDir, false), nil
	case "bulk-warm":
		return newBulkRunner(cfg, workDir, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, bulk-cold or bulk-warm)", cfg.Workload)
}

// execute runs cfg and assembles its record.
func execute(ctx context.Context, cfg runConfig, log io.Writer) (*record, error) {
	workDir := filepath.Join(cfg.Root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	runner, err := newRunner(cfg, workDir)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Context:  collectHostContext(cfg.Root, cfg.Seed),
		Workload: cfg.Workload,
		Traced:   cfg.Traced,
		Detail:   map[string]any{},
		Values:   map[string]float64{},
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	var profiled, plain, traced []*roundResult
	var inst *instruments
	if !cfg.Traced {
		plain, err = measure(ctx, runner, nil, budget, setupReps, log)
		if err != nil {
			return nil, err
		}
	} else {
		// The first half runs untraced under the CPU profiler. The
		// second half pairs an untraced and a traced round over the
		// same input, neither profiled, so the two differ only in the
		// tracer and the timing decorators.
		prof := &profiler{}
		profiled, err = measure(ctx, runner, prof, budget/2, 0, log)
		if err != nil {
			return nil, err
		}
		if prof.err != nil {
			return nil, fmt.Errorf("CPU profile: %w", prof.err)
		}
		for k, v := range foldByModule(prof.samples) {
			rec.Values["cpu."+k] = v
		}
		if !failedOracle(profiled) {
			inst = newInstruments(cfg.Workload)
			plain, traced, err = measurePairs(ctx, runner, inst, budget/2, log)
			if err != nil {
				return nil, err
			}
		}
	}
	for _, g := range []struct {
		kind   string
		rounds []*roundResult
	}{{"profiled", profiled}, {"untraced", plain}, {"traced", traced}} {
		for _, r := range g.rounds {
			rec.Rounds = append(rec.Rounds, summarize(r, g.kind))
			rec.Oracle = append(rec.Oracle, r.problems...)
		}
	}
	all := append(append(append([]*roundResult(nil), profiled...), plain...), traced...)
	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.ops
		failed += r.failed
	}
	runner.finish(rec.Values, rec.Detail)

	defs := endToEnd
	if !cfg.Traced {
		endToEndValues(rec.Values, plain, attempted, failed)
		// The program's counters go on the record line; the result line
		// carries only the end-to-end metrics.
		counterValues(rec.Values, totalsOf(plain), opsOf(plain))
	} else if inst != nil {
		runtimeValues(rec.Values, plain)
		rec.Values["failed_frac"] = ratio(float64(failed), float64(attempted))
		counterValues(rec.Values, totalsOf(traced), opsOf(traced))
		spansOut := filepath.Join(cfg.Root, ".bench_build", "spans-"+cfg.Workload+".jsonl")
		if err := inst.finish(rec.Values, plain, traced, spansOut); err != nil {
			return nil, err
		}
		defs = perLayer
	}
	rec.Result = result{Correct: len(rec.Oracle) == 0, Attempted: attempted, Failed: failed}
	if attempted == 0 {
		return nil, errors.New("no operations were attempted")
	}
	if rec.Result.Correct {
		m, err := buildMetrics(defs, rec.Values)
		if err != nil {
			return nil, err
		}
		rec.Result.Metrics = m
	} else {
		rec.Result.Metrics = map[string]metricValue{}
		for _, p := range rec.Oracle {
			fmt.Fprintf(log, "perfbench: oracle: %s\n", p)
		}
	}
	return rec, nil
}

// setupReps is how many extra set-up samples follow each round of an
// untraced run. The traced run reports no set-up time and takes none,
// so its CPU profile holds only measured work.
const setupReps = 4

// measure runs untraced rounds over inputs 0, 1, 2, … until budget has
// elapsed and at least minRounds completed, taking reps set-up-only
// samples after each. prof, when not nil, profiles the rounds' timed
// parts.
func measure(ctx context.Context, runner workloadRunner, prof *profiler, budget time.Duration, reps int, log io.Writer) ([]*roundResult, error) {
	var out []*roundResult
	start := time.Now()
	for len(out) < minRounds || time.Since(start) < budget {
		r, err := runRound(ctx, runner, len(out), nil, prof, reps, log)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if len(r.problems) > 0 {
			break // a wrong output ends the run; no numbers are reported
		}
	}
	return out, nil
}

// measurePairs runs pairs of rounds until budget has elapsed and at
// least minRounds pairs completed. Pair i runs input i twice, once
// untraced and once traced under inst; which goes first alternates, so
// drift over the run falls on both sides alike.
func measurePairs(ctx context.Context, runner workloadRunner, inst *instruments, budget time.Duration, log io.Writer) (plain, traced []*roundResult, err error) {
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		order := []*instruments{nil, inst}
		if i%2 == 1 {
			order = []*instruments{inst, nil}
		}
		for _, in := range order {
			r, err := runRound(ctx, runner, i, in, nil, 0, log)
			if err != nil {
				return nil, nil, err
			}
			if in == nil {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
			if len(r.problems) > 0 {
				return plain, traced, nil
			}
		}
	}
	return plain, traced, nil
}

// runRound runs one round over input and then reps set-up-only
// samples.
func runRound(ctx context.Context, runner workloadRunner, input int, inst *instruments, prof *profiler, reps int, log io.Writer) (*roundResult, error) {
	// Every round starts from a collected heap, so no round pays for
	// garbage an earlier one left.
	runtime.GC()
	r, err := runner.round(ctx, input, inst, prof)
	if err != nil {
		return nil, err
	}
	kind := "untraced"
	switch {
	case inst != nil:
		kind = "traced"
	case prof != nil:
		kind = "profiled"
	}
	fmt.Fprintf(log, "perfbench: round (%s, input %d): setup %.3fs, %d ops in %.3fs (%.0f ops/s, %.1f cpu-us/op), %d failed\n",
		kind, input, r.setup.Seconds(), r.ops,
		r.timed.wall.Seconds(), ratio(float64(r.ops), r.timed.wall.Seconds()),
		ratio(float64(r.timed.cpu.Microseconds()), float64(r.ops)), r.failed)
	for i := 0; i < reps; i++ {
		d, err := runner.setupOnly(ctx, input)
		if err != nil {
			return nil, err
		}
		r.extraSetup = append(r.extraSetup, d)
	}
	return r, nil
}

func failedOracle(rounds []*roundResult) bool {
	for _, r := range rounds {
		if len(r.problems) > 0 {
			return true
		}
	}
	return false
}

func opsOf(rounds []*roundResult) int {
	n := 0
	for _, r := range rounds {
		n += r.ops
	}
	return n
}

func summarize(r *roundResult, kind string) roundSummary {
	return roundSummary{
		Kind:     kind,
		SetupS:   r.setup.Seconds(),
		WallS:    r.timed.wall.Seconds(),
		CPUS:     r.timed.cpu.Seconds(),
		Ops:      r.ops,
		Failed:   r.failed,
		OpsPerS:  ratio(float64(r.ops), r.timed.wall.Seconds()),
		CPUUSOp:  ratio(float64(r.timed.cpu)/1e3, float64(r.ops)),
		Problems: len(r.problems),
	}
}

// endToEndValues derives the end-to-end metrics from the untraced
// rounds: medians across rounds, so one disturbed round cannot move
// them.
func endToEndValues(vals map[string]float64, rounds []*roundResult, attempted, failed int) {
	var setup, opsPerS, cpuPerOp []float64
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		for _, d := range r.extraSetup {
			setup = append(setup, d.Seconds())
		}
		opsPerS = append(opsPerS, ratio(float64(r.ops), r.timed.wall.Seconds()))
		cpuPerOp = append(cpuPerOp, ratio(float64(r.timed.cpu)/1e3, float64(r.ops)))
	}
	vals["setup_s"] = median(setup)
	vals["ops_per_s"] = median(opsPerS)
	vals["cpu_us_per_op"] = median(cpuPerOp)
	vals["peak_rss_mb"] = peakRSSMB()
	vals["ok_frac"] = 1 - ratio(float64(failed), float64(attempted))
}

// runtimeValues derives the runtime layer's metrics from the timed
// spans of untraced, unprofiled rounds.
func runtimeValues(vals map[string]float64, rounds []*roundResult) {
	var busy, gc, alloc, cycles, sched []float64
	for _, r := range rounds {
		t := r.timed
		busy = append(busy, ratio(t.cpu.Seconds(), t.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		gc = append(gc, ratio(t.gcCPU, t.cpu.Seconds()))
		alloc = append(alloc, ratio(float64(t.allocBytes)/1024, float64(r.ops)))
		cycles = append(cycles, float64(t.gcCycles))
		sched = append(sched, t.schedP99*1e6)
	}
	vals["runtime.cpu_busy_frac"] = median(busy)
	vals["runtime.gc_cpu_frac"] = median(gc)
	vals["runtime.alloc_kb_per_op"] = median(alloc)
	vals["runtime.gc_cycles"] = median(cycles)
	vals["runtime.sched_latency_us_p99"] = median(sched)
}

// parseSeeds parses "1-32" or "1,5,9" into seeds.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(strings.TrimSpace(hi), 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}
