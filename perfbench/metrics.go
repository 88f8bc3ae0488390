package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef describes one reported metric. The two tables below are
// what BENCHMARK.json declares: it lists exactly these names
// and units (TestBenchmarkJSONMatchesTables pins it).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics an untraced run (--trace 0) reports on
// every workload. An op is a delivery or probe task for paper and a
// tuple for the bulk workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"ok_frac", "frac", "higher", 0.05},
}

// cpuModules are the CPU-profile attribution buckets, reported as
// cpu.<module>: the innermost repository frame of each sample, with
// runtime GC and malloc split out and dns split into client and
// server. "bench" is the benchmark's own code and "other" the samples
// with no repository frame (scheduler, netpoll, syscalls).
var cpuModules = []string{
	"experiment", "campaign", "probe", "smtp", "netsim", "mtasim",
	"dkim", "dmarc", "spf", "bulkspf", "resolver",
	"dns.client", "dns.server", "dnsserver", "policy",
	"wal", "jsonwire", "trace", "telemetry",
	"runtime.gc", "runtime.malloc", "bench", "other",
}

// selfFamilies are the span names whose self time per op is reported
// as self_us.<name>.
var selfFamilies = []string{
	"probe.smtp", "spf.check", "resolver.exchange", "resolver.wire", "dns.serve",
}

// perLayer are the metrics a traced run (--trace 1) reports. A metric
// a workload cannot produce reads 0 (README.md lists which and why).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"experiment.notifyemail_s", "s", "lower", 0},
		{"experiment.notifymx_s", "s", "lower", 0},
		{"experiment.twoweekmx_s", "s", "lower", 0},
		{"experiment.analysis_s", "s", "lower", 0},
		{"campaign.attempts_per_task", "count", "lower", 0},
		{"campaign.failed", "count", "lower", 0},
		{"campaign.journal_write_us_mean", "us", "lower", 0},
		{"campaign.task_us_p50", "us", "lower", 0},
		{"campaign.task_us_p99", "us", "lower", 0},
		{"mtasim.spf_checks_per_op", "count", "lower", 0},
		{"mtasim.dkim_checks", "count", "lower", 0},
		{"mtasim.dmarc_checks", "count", "lower", 0},
		{"spf.lookups_per_check", "count", "lower", 0},
		{"spf.check_us_p50", "us", "lower", 0},
		{"spf.check_us_p99", "us", "lower", 0},
		{"resolver.lookups_per_op", "count", "lower", 0},
		{"resolver.cache_hit_frac", "frac", "higher", 0},
		{"resolver.wire_per_lookup", "count", "lower", 0},
		{"resolver.singleflight_shared", "count", "higher", 0},
		{"resolver.retries", "count", "lower", 0},
		{"resolver.timeouts", "count", "lower", 0},
		{"resolver.lookup_us_mean", "us", "lower", 0},
		{"dns.client_wire_us_p50", "us", "lower", 0},
		{"dns.client_wire_us_p99", "us", "lower", 0},
		{"dnsserver.queries_per_op", "count", "lower", 0},
		{"dns.serve_us_mean", "us", "lower", 0},
		{"dns.tcp_frac", "frac", "lower", 0},
		{"dnsserver.respond_us_mean", "us", "lower", 0},
		{"dnsserver.log_append_us_mean", "us", "lower", 0},
		{"dnsserver.log_dropped", "count", "lower", 0},
		{"wal.bytes_per_entry", "B", "lower", 0},
		{"dnsserver.ingest_entries_per_s", "1/s", "higher", 0},
		{"runtime.cpu_busy_frac", "frac", "higher", 0},
		{"runtime.gc_cpu_frac", "frac", "lower", 0},
		{"runtime.alloc_kb_per_op", "kB", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
		{"runtime.sched_latency_us_p99", "us", "lower", 0},
		{"failed_frac", "frac", "lower", 0},
		{"trace.dropped", "count", "lower", 0},
		{"trace.overhead_frac", "frac", "lower", 0},
	}
	for _, f := range selfFamilies {
		defs = append(defs, metricDef{"self_us." + f, "us", "lower", 0})
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "frac", "lower", 0})
	}
	return defs
}

// metricName is BENCHMARK.json's name rule: a letter or digit first,
// then at most 63 more letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name satisfies the name rule.
func validMetricName(name string) bool { return metricName.MatchString(name) }

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildMetrics renders vals through defs, failing on a missing or
// non-finite value so a run never prints an incomplete result.
func buildMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the middle value of xs (mean of the two middle values
// for even lengths); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
