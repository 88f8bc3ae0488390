package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/trace"
)

// repoRoot is the checkout the benchmark drives: the parent of this
// package's directory.
const repoRoot = ".."

func rec(traceID, id, parent, name string, startUS, durUS int64) trace.Record {
	return trace.Record{
		Trace: traceID, Span: id, Parent: parent, Name: name,
		Start: time.Unix(0, 0).Add(time.Duration(startUS) * time.Microsecond),
		DurUS: durUS,
	}
}

func TestSpanSelfTime(t *testing.T) {
	recs := []trace.Record{
		rec("t1", "p", "", "parent", 0, 100),
		// Overlapping children: their union [10,60) counts once.
		rec("t1", "a", "p", "child", 10, 30),
		rec("t1", "b", "p", "child", 30, 30),
		// A child started from another goroutine through trace.Link that
		// outlives its parent: only [90,100) lies inside the parent.
		rec("t1", "c", "p", "linked", 90, 30),
		// A grandchild covers part of a, not of p.
		rec("t1", "d", "a", "grandchild", 15, 10),
		// A child promoted for being slow is not head-sampled and does
		// not count, as a span or as a child.
		func() trace.Record { r := rec("t1", "e", "p", "child", 70, 10); r.Why = "slow"; return r }(),
		// The same span ID in another trace is a different span.
		rec("t2", "x", "p", "child", 0, 100),
	}
	st := analyzeSpans(recs)
	us := func(name string) int64 { return st.self[name].Microseconds() }
	if got := us("parent"); got != 40 {
		t.Errorf("parent self = %dµs, want 40 (100 minus [10,60) and [90,100))", got)
	}
	// a: 30 - 10 (grandchild); b: 30; the t2 child: 100.
	if got := us("child"); got != 20+30+100 {
		t.Errorf("child self = %dµs, want 150", got)
	}
	if got := us("linked"); got != 30 {
		t.Errorf("linked self = %dµs, want 30", got)
	}
	if got := st.count["child"]; got != 3 {
		t.Errorf("child count = %d, want 3 (the slow-promoted span excluded)", got)
	}
}

func TestClassifyStack(t *testing.T) {
	const p = "sendervalid/internal/"
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "runtime.mallocgc", p + "spf.Parse", p + "spf.(*Checker).CheckHost"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", p + "resolver.(*Resolver).Exchange"}, "runtime.gc"},
		{[]string{p + "dns.(*parser).name", p + "dns.(*Message).Unpack", p + "dns.(*Client).ExchangeOver", p + "resolver.(*Resolver).lead"}, "dns.client"},
		{[]string{p + "dns.(*Message).AppendPack", p + "dns.(*udpResponseWriter).WriteMsg", p + "dnsserver.(*Server).handler.func1"}, "dns.server"},
		{[]string{p + "dns.(*Message).Unpack", p + "dns.(*Server).handlePacket"}, "dns.server"},
		{[]string{p + "dns.CanonicalName", p + "dnsserver.(*Server).handler.func1"}, "dns.server"},
		{[]string{p + "dns.CanonicalName", p + "resolver.(*Resolver).Exchange"}, "dns.client"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", p + "dns.exchangeUDP", p + "dns.(*Client).ExchangeOver"}, "dns.client"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"encoding/json.Unmarshal", "main.(*bulkRunner).check"}, "bench"},
		{[]string{"strings.ToLower", p + "jsonwire.AppendString", p + "dnsserver.AppendLogJSON"}, "jsonwire"},
	}
	for _, c := range cases {
		if got := classifyStack(c.stack); got != c.want {
			t.Errorf("classifyStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	var samples []stackSample
	for _, c := range cases {
		samples = append(samples, stackSample{value: 10, funcs: c.stack})
	}
	shares := foldByModule(samples)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("module shares sum to %v, want 1", sum)
	}
	if want := 2.0 / float64(len(cases)); math.Abs(shares["runtime.gc"]-want) > 1e-9 {
		t.Errorf("runtime.gc share = %v, want %v", shares["runtime.gc"], want)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<20; i++ {
			n += i ^ n>>3
		}
	}
	return n
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with CPU value %d", s.value)
		}
		for _, f := range s.funcs {
			if strings.HasSuffix(f, ".spinForProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample names spinForProfile among %d samples", len(samples))
	}
	if shares := foldByModule(samples); shares["bench"] < 0.5 {
		t.Errorf("bench share = %v, want most of the profile", shares["bench"])
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.Name) {
			t.Errorf("invalid metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", ".lead", "has space", "a/b", "x{y}", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	for _, good := range []string{"cpu.dns.client", "self_us.resolver.wire", "ops_per_s", "9-x"} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false", good)
		}
	}
	if !seen["setup_s"] || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric
// tables the benchmark prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestInputsAreSeeded pins that a seed fixes the inputs byte for byte
// and that another seed changes them.
func TestInputsAreSeeded(t *testing.T) {
	for _, warm := range []bool{false, true} {
		a, _, wa := bulkInput(7, 500, warm)
		b, _, wb := bulkInput(7, 500, warm)
		c, _, _ := bulkInput(8, 500, warm)
		if !bytes.Equal(a, b) || !bytes.Equal(wa, wb) {
			t.Errorf("warm=%v: same seed gave different tuple streams", warm)
		}
		if bytes.Equal(a, c) {
			t.Errorf("warm=%v: seeds 7 and 8 gave the same tuple stream", warm)
		}
	}
	pop := func(seed int64) []byte {
		in := generatePaperInput(seed, 60)
		b, err := json.Marshal([]any{in.ne, in.tw})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(pop(7), pop(7)) {
		t.Error("same seed gave different populations")
	}
	if bytes.Equal(pop(7), pop(8)) {
		t.Error("seeds 7 and 8 gave the same populations")
	}
}

// smoke runs a workload at a tiny scale through the same path the
// benchmark takes and requires its oracle to pass.
func smoke(t *testing.T, workload string, scale int, traced bool) *record {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs start servers and fleets")
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{Workload: workload, Seed: 1, Seconds: 0, Traced: traced, Root: root, Scale: scale}
	r, err := execute(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Result.Correct {
		t.Fatalf("oracle failed: %v", r.Oracle)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := r.Result.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	return r
}

func TestSmokePaper(t *testing.T) { smoke(t, "paper", 40, false) }

func TestSmokeBulkCold(t *testing.T) { smoke(t, "bulk-cold", 400, false) }

func TestSmokeBulkWarm(t *testing.T) { smoke(t, "bulk-warm", 400, false) }

func TestSmokeTraced(t *testing.T) {
	r := smoke(t, "bulk-cold", 400, true)
	if d := r.Result.Metrics["trace.dropped"].Value; d != 0 {
		t.Errorf("trace.dropped = %v", d)
	}
	if q := r.Result.Metrics["resolver.lookups_per_op"].Value; q <= 0 {
		t.Errorf("resolver.lookups_per_op = %v, want > 0", q)
	}
}

// TestColdWarmVerdictsAgree is the cache-on/off invariant: a policy's
// verdict is the same whether its lookups miss the cache (cold) or hit
// it (warm).
func TestColdWarmVerdictsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	dir := t.TempDir()
	byTest := func(warm bool) map[string]bulkVerdict {
		b := newBulkRunner(runConfig{Seed: 3, Scale: 300}, dir, warm)
		r, err := b.round(context.Background(), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) > 0 {
			t.Fatalf("warm=%v: %v", warm, r.problems)
		}
		out := map[string]bulkVerdict{}
		for i, v := range b.first {
			out[b.tests[i]] = v
		}
		return out
	}
	cold, warm := byTest(false), byTest(true)
	for test, v := range cold {
		if w, ok := warm[test]; ok && w != v {
			t.Errorf("%s: cold %v, warm %v", test, v, w)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int, workload string, correct bool) string {
		r := record{Context: hostContext{NProc: nproc, GOMAXPROCS: nproc, GoVersion: "go1.24.0"}, Workload: workload,
			Result: result{Correct: correct, Attempted: 1, Metrics: map[string]metricValue{"ops_per_s": {100, "1/s"}}}}
		b, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", 2, "bulk-cold", true), write("b", 2, "bulk-cold", true), write("c", 4, "bulk-cold", true)
	if code := runCompare([]string{a, b}, io.Discard, io.Discard); code != 0 {
		t.Errorf("same host: exit %d, want 0", code)
	}
	if code := runCompare([]string{a, c}, io.Discard, io.Discard); code != exitIncomparable {
		t.Errorf("different nproc: exit %d, want %d", code, exitIncomparable)
	}
	// A change whose runs fail their oracle, or that lacks a workload
	// the base has, fails rather than passing on no numbers.
	var out bytes.Buffer
	wrong := write("wrong", 2, "bulk-cold", false)
	if code := runCompare([]string{a, wrong}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "INCORRECT") {
		t.Errorf("incorrect head: exit %d, output %q; want exit 1 and INCORRECT", code, out.String())
	}
	out.Reset()
	other := write("other", 2, "bulk-warm", true)
	if code := runCompare([]string{a, other}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("missing workload: exit %d, output %q; want exit 1 and MISSING", code, out.String())
	}
}
