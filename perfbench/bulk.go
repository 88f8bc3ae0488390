package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sendervalid/internal/bulkspf"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/policy"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

// The bulk workloads drive cmd/spfcheck's bulk pipeline (bulkspf over
// one shared caching resolver) against an in-process authdns: the full
// policy catalog at timescale ≈0, its query log going through
// AsyncLog → WALSink as authdns -log-file writes it. Each round then
// drains the log, reads it back and analyses it as cmd/analyze does.

// bulkTests are the policies the tuple streams draw from: t01–t12
// except t10, whose policy is served only over IPv6 and so is a
// temperror by design against a v4-only server.
var bulkTests = []string{"t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t11", "t12"}

// bulkVerdict is a tuple's expected evaluation: the same for every
// sender of a policy, with the cache cold or warm.
type bulkVerdict struct {
	Result      spf.Result
	Lookups     int
	VoidLookups int
}

// bulkReference is the oracle: each policy's verdict for a connection
// from bulkClientIP (RFC 7208 semantics as the catalog encodes them).
var bulkReference = map[string]bulkVerdict{
	"t01": {spf.Fail, 4, 0},
	"t02": {spf.PermError, 11, 0},
	"t03": {spf.Fail, 1, 0},
	"t04": {spf.PermError, 0, 0},
	"t05": {spf.PermError, 1, 0},
	"t06": {spf.PermError, 3, 3},
	"t07": {spf.Neutral, 1, 1},
	"t08": {spf.PermError, 0, 0},
	"t09": {spf.Neutral, 1, 0},
	"t11": {spf.PermError, 1, 0},
	"t12": {spf.Fail, 0, 0},
}

const bulkClientIP = "198.18.0.1"

// Round sizes: enough tuples that one round takes a few seconds on a
// small host, so per-round throughput is steady.
const (
	coldTuples  = 2000
	warmTuples  = 50000
	warmSenders = 44 // four senders per policy: the working set fits the 4096-entry cache
)

// bulkRunner is the bulk-cold / bulk-warm workload.
type bulkRunner struct {
	warm    bool
	workDir string
	workers int
	input   []byte   // the measured tuple stream
	tests   []string // input line → policy, for the oracle
	warmup  []byte   // bulk-warm: one tuple per sender, run untimed first
	rounds  int

	// Across rounds: the per-tuple verdicts of the first round (every
	// round must reproduce them) and the measurements the traced
	// rounds feed into per-layer metrics.
	first       []bulkVerdict
	micros      []float64
	lookups     int
	checks      int
	ingestRates []float64
}

func newBulkRunner(cfg runConfig, workDir string, warm bool) *bulkRunner {
	n := coldTuples
	if warm {
		n = warmTuples
	}
	if cfg.Scale > 0 {
		n = cfg.Scale
	}
	b := &bulkRunner{warm: warm, workDir: workDir, workers: runtime.NumCPU()}
	b.input, b.tests, b.warmup = bulkInput(cfg.Seed, n, warm)
	return b
}

// bulkInput generates a workload's tuple stream from seed. The policy
// mix is the same for every seed — each policy takes an equal share of
// the stream, since their costs differ by an order of magnitude — and
// the seed decides the order and the sender names. Cold: every tuple
// names a distinct sender, tNN.cNNNNNNN. Warm: tuples cycle over
// warmSenders senders, each block of warmSenders tuples a fresh
// seeded permutation of them, and warmup holds one tuple per sender.
func bulkInput(seed int64, n int, warm bool) (input []byte, tests []string, warmup []byte) {
	rng := rand.New(rand.NewSource(seed))
	suffix := strings.TrimSuffix(experiment.DefaultTestSuffix, ".")
	line := func(buf *bytes.Buffer, test, id string) {
		fmt.Fprintf(buf, `{"ip":%q,"mail_from":"spf-test@%s.%s.%s"}`+"\n", bulkClientIP, test, id, suffix)
	}
	var in bytes.Buffer
	tests = make([]string, n)
	if !warm {
		for i := range tests {
			tests[i] = bulkTests[i%len(bulkTests)]
		}
		rng.Shuffle(n, func(i, j int) { tests[i], tests[j] = tests[j], tests[i] })
		ids := rng.Perm(n)
		for i := 0; i < n; i++ {
			line(&in, tests[i], fmt.Sprintf("c%07d", ids[i]))
		}
		return in.Bytes(), tests, nil
	}
	type sender struct{ test, id string }
	senders := make([]sender, warmSenders)
	var wu bytes.Buffer
	for i := range senders {
		senders[i] = sender{bulkTests[i%len(bulkTests)], fmt.Sprintf("w%03d%04d", i, rng.Intn(10000))}
		line(&wu, senders[i].test, senders[i].id)
	}
	var order []int
	for i := 0; i < n; i++ {
		if i%warmSenders == 0 {
			order = rng.Perm(warmSenders)
		}
		s := senders[order[i%warmSenders]]
		tests[i] = s.test
		line(&in, s.test, s.id)
	}
	return in.Bytes(), tests, wu.Bytes()
}

// bulkStack is one round's serving side: the query-log WAL behind its
// async buffer, the authoritative server, and the evaluator over a
// fresh resolver. Opening it is the workload's set-up.
type bulkStack struct {
	walSink *dnsserver.WALSink
	alog    *dnsserver.AsyncLog
	srv     *dnsserver.Server
	res     *resolver.Resolver
	eval    *bulkspf.Evaluator
}

func (b *bulkRunner) open(path string, inst *instruments) (*bulkStack, error) {
	walSink, err := dnsserver.NewWALSink(path, wal.Options{Sync: wal.SyncInterval, RotateBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	s := &bulkStack{walSink: walSink, alog: dnsserver.NewAsyncLog(inst.wrapSink(walSink), 4096)}
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 1e-9}
	s.srv = &dnsserver.Server{
		Zones: []*dnsserver.Zone{{
			Suffix:     experiment.DefaultTestSuffix,
			Contact:    dnsserver.FormatContact(experiment.DefaultContact),
			Responders: inst.wrapResponders(policy.RespondersWithDMARC(env, experiment.DefaultContact)),
		}},
		Log:    s.alog,
		Tracer: tracerOf(inst),
	}
	addr, err := s.srv.Start()
	if err != nil {
		s.alog.Close()
		s.walSink.Close()
		return nil, err
	}
	s.res = resolver.New(resolver.Config{Server: addr.String()})
	s.eval = bulkspf.New(bulkspf.Config{
		Resolver: inst.wrapResolver(s.res),
		Workers:  b.workers,
		Tracer:   tracerOf(inst),
	})
	return s, nil
}

// close stops the server, then drains and closes the log, in
// authdns's shutdown order.
func (s *bulkStack) close(ctx context.Context, inst *instruments) error {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err := s.srv.Shutdown(sctx)
	cancel()
	sp := phase(inst, "querylog.drain")
	s.alog.Close()
	if cerr := s.walSink.Close(); err == nil {
		err = cerr
	}
	sp.End()
	return err
}

// setupOnly opens and closes a round's stack with no work in between:
// one more set-up sample.
func (b *bulkRunner) setupOnly(ctx context.Context, _ int) (time.Duration, error) {
	path := filepath.Join(b.workDir, "setup.wal")
	defer os.Remove(path)
	t0 := time.Now()
	s, err := b.open(path, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, s.close(ctx, nil)
}

// round runs the workload's one tuple stream; input is ignored.
func (b *bulkRunner) round(ctx context.Context, _ int, inst *instruments, prof *profiler) (*roundResult, error) {
	b.rounds++
	rr := &roundResult{}
	logPath := filepath.Join(b.workDir, fmt.Sprintf("querylog-%d.wal", b.rounds))
	defer os.Remove(logPath)

	t0 := time.Now()
	s, err := b.open(logPath, inst)
	if err != nil {
		return nil, err
	}
	rr.setup = time.Since(t0)

	// Every round registers the program's telemetry, as authdns does
	// for its server and query log.
	reg := telemetry.NewRegistry()
	s.srv.RegisterMetrics(reg)
	s.alog.RegisterMetrics(reg)
	s.walSink.RegisterMetrics(reg, telemetry.L("name", "querylog"))
	s.res.RegisterMetrics(reg)
	s.eval.RegisterMetrics(reg)

	if b.warm {
		// Fill the cache before timing: users of a warm cache do not
		// pay for filling it on every tuple.
		if _, err := s.eval.Run(ctx, bytes.NewReader(b.warmup), io.Discard); err != nil {
			s.close(ctx, inst)
			return nil, err
		}
	}

	var out bytes.Buffer
	out.Grow(len(b.input) * 2)
	m := meter{prof: prof}
	m.begin()
	sp := phase(inst, "bulkspf.run")
	stats, runErr := s.eval.Run(ctx, bytes.NewReader(b.input), &out)
	sp.End()
	closeErr := s.close(ctx, inst)
	entries, attributed, readDur, readErr := b.readBack(logPath, inst)
	m.end()
	rr.timed = m.total
	rr.counters = reg.Snapshot()
	alog := s.alog

	switch {
	case runErr != nil:
		return nil, fmt.Errorf("bulkspf: %w", runErr)
	case closeErr != nil:
		return nil, fmt.Errorf("closing server and query log: %w", closeErr)
	case readErr != nil:
		return nil, fmt.Errorf("reading query log back: %w", readErr)
	}
	if inst != nil {
		b.ingestRates = append(b.ingestRates, ratio(float64(entries), readDur.Seconds()))
	}

	// Oracles.
	rr.ops = len(b.tests)
	verdicts, failed, problems := b.check(out.Bytes(), inst != nil)
	rr.failed = failed
	rr.problems = problems
	if stats.Evaluated != uint64(len(b.tests)) {
		rr.problems = append(rr.problems, fmt.Sprintf("bulkspf evaluated %d of %d tuples", stats.Evaluated, len(b.tests)))
	}
	if d := alog.Dropped(); d != 0 {
		rr.problems = append(rr.problems, fmt.Sprintf("query log dropped %d entries", d))
	}
	if uint64(entries) != alog.Appended() {
		rr.problems = append(rr.problems, fmt.Sprintf("query log read back %d entries, %d appended", entries, alog.Appended()))
	}
	if attributed == 0 {
		rr.problems = append(rr.problems, "query log has no attributed entries")
	}
	if b.first == nil {
		b.first = verdicts
	} else {
		for i := range verdicts {
			if verdicts[i] != b.first[i] {
				rr.problems = append(rr.problems, fmt.Sprintf("tuple %d: verdict %v differs from the first round's %v", i, verdicts[i], b.first[i]))
				break
			}
		}
	}
	return rr, nil
}

// readBack reads the round's query log through OpenLogStream and
// ParForEachLogJSON and runs cmd/analyze's analyses over the
// attributed entries.
func (b *bulkRunner) readBack(path string, inst *instruments) (entries, attributed int, read time.Duration, err error) {
	sp := phase(inst, "querylog.read")
	defer sp.End()
	t0 := time.Now()
	f, err := dnsserver.OpenLogStream(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	var kept []dnsserver.LogEntry
	err = dnsserver.ParForEachLogJSONOrdered(f, b.workers, func(e dnsserver.LogEntry) error {
		entries++
		if e.MTAID != "" {
			kept = append(kept, e)
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if st := f.Stats(); st.Truncated {
		return 0, 0, 0, fmt.Errorf("query log torn: %d bytes dropped", st.DroppedBytes)
	}
	read = time.Since(t0)
	asp := phase(inst, "analysis")
	experiment.AnalyzeSerialParallelEntries(kept)
	experiment.AnalyzeLookupLimitsEntries(kept)
	experiment.AnalyzeBehaviorsEntries(kept)
	experiment.AnalyzeFingerprintEntries(kept)
	asp.End()
	return entries, len(kept), read, nil
}

// check parses the result stream and compares every tuple's verdict
// with its policy's reference. Failed ops are temperror verdicts and
// lines that never reached evaluation.
func (b *bulkRunner) check(out []byte, traced bool) (verdicts []bulkVerdict, failed int, problems []string) {
	verdicts = make([]bulkVerdict, len(b.tests))
	seen := make([]bool, len(b.tests))
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	bad := 0
	for sc.Scan() {
		var r bulkspf.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, []string{fmt.Sprintf("undecodable result line: %v", err)}
		}
		if r.Seq < 0 || r.Seq >= len(b.tests) || seen[r.Seq] {
			return nil, 0, []string{fmt.Sprintf("result seq %d out of range or repeated", r.Seq)}
		}
		seen[r.Seq] = true
		v := bulkVerdict{r.Result, r.Lookups, r.VoidLookups}
		verdicts[r.Seq] = v
		if r.Result == spf.TempError || r.Err != "" {
			failed++
		}
		if want := bulkReference[b.tests[r.Seq]]; v != want {
			if bad < 3 {
				problems = append(problems, fmt.Sprintf("tuple %d (%s): got %s %d/%d, want %s %d/%d",
					r.Seq, b.tests[r.Seq], v.Result, v.Lookups, v.VoidLookups, want.Result, want.Lookups, want.VoidLookups))
			}
			bad++
		}
		if traced {
			b.micros = append(b.micros, float64(r.Micros))
			b.lookups += r.Lookups
			b.checks++
		}
	}
	if bad > 3 {
		problems = append(problems, fmt.Sprintf("%d tuples in all differ from the reference", bad))
	}
	for i, ok := range seen {
		if !ok {
			problems = append(problems, fmt.Sprintf("tuple %d has no result", i))
			break
		}
	}
	return verdicts, failed, problems
}

func (b *bulkRunner) finish(vals map[string]float64, detail map[string]any) {
	vals["spf.lookups_per_check"] = ratio(float64(b.lookups), float64(b.checks))
	vals["spf.check_us_p50"] = quantile(b.micros, 0.5)
	vals["spf.check_us_p99"] = quantile(b.micros, 0.99)
	vals["dnsserver.ingest_entries_per_s"] = median(b.ingestRates)
	detail["tuples_per_round"] = len(b.tests)
}
