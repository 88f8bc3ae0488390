package main

import (
	"context"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/spf"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/trace"
)

// instruments is the traced rounds' measurement apparatus: the
// program's own tracer (switched on through its public config) and the
// benchmark's timing decorators around the layers it can wrap from
// outside.
type instruments struct {
	tracer *trace.Tracer
	rate   float64
	spans  *spanBuffer

	lookup, respond, appendLog timer

	// tracerReg holds the tracer's own counters.
	tracerReg *telemetry.Registry
}

// sampleRates are the head-sampling rates per workload, chosen so the
// exporter keeps up (trace.dropped = 0) and the in-memory stream stays
// small. Per-op span metrics are scaled back by the rate.
var sampleRates = map[string]float64{
	"paper":     0.25,
	"bulk-cold": 0.1,
	"bulk-warm": 0.02,
}

func newInstruments(workload string) *instruments {
	rate := sampleRates[workload]
	if rate == 0 {
		rate = 0.1
	}
	buf := &spanBuffer{}
	inst := &instruments{
		tracer:    trace.New(trace.Config{SampleRate: rate, Output: buf, BufferDepth: 1 << 16}),
		rate:      rate,
		spans:     buf,
		tracerReg: telemetry.NewRegistry(),
	}
	inst.tracer.RegisterMetrics(inst.tracerReg)
	return inst
}

// tracerOf returns inst's tracer, nil when untraced.
func tracerOf(inst *instruments) *trace.Tracer {
	if inst == nil {
		return nil
	}
	return inst.tracer
}

// phase opens the benchmark's span around one call into a layer.
func phase(inst *instruments, name string) *trace.Span {
	_, sp := tracerOf(inst).Start(context.Background(), "bench."+name)
	return sp
}

// timer accumulates call counts and durations.
type timer struct {
	n, ns atomic.Int64
}

func (t *timer) since(t0 time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(t0)))
}

func (t *timer) meanUS() float64 {
	return ratio(float64(t.ns.Load())/1e3, float64(t.n.Load()))
}

// timedResolver times every lookup the SPF evaluator makes.
type timedResolver struct {
	inner spf.Resolver
	t     *timer
}

func (r timedResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	defer r.t.since(time.Now())
	return r.inner.LookupTXT(ctx, name)
}

func (r timedResolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	defer r.t.since(time.Now())
	return r.inner.LookupA(ctx, name)
}

func (r timedResolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	defer r.t.since(time.Now())
	return r.inner.LookupAAAA(ctx, name)
}

func (r timedResolver) LookupMX(ctx context.Context, name string) ([]spf.MXRecord, error) {
	defer r.t.since(time.Now())
	return r.inner.LookupMX(ctx, name)
}

func (r timedResolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	defer r.t.since(time.Now())
	return r.inner.LookupPTR(ctx, ip)
}

// timedResponder times the authoritative server's policy synthesis.
type timedResponder struct {
	inner dnsserver.Responder
	t     *timer
}

func (r timedResponder) Respond(q *dnsserver.Query) dnsserver.Response {
	defer r.t.since(time.Now())
	return r.inner.Respond(q)
}

// timedSink times query-log appends behind the async buffer.
type timedSink struct {
	inner dnsserver.Sink
	t     *timer
}

func (s timedSink) Append(e dnsserver.LogEntry) {
	defer s.t.since(time.Now())
	s.inner.Append(e)
}

// wrapResolver, wrapResponders and wrapSink decorate when traced and
// pass through otherwise, so the untraced rounds run the program as
// shipped.
func (inst *instruments) wrapResolver(r spf.Resolver) spf.Resolver {
	if inst == nil {
		return r
	}
	return timedResolver{r, &inst.lookup}
}

func (inst *instruments) wrapResponders(m map[string]dnsserver.Responder) map[string]dnsserver.Responder {
	if inst == nil {
		return m
	}
	out := make(map[string]dnsserver.Responder, len(m))
	for k, r := range m {
		out[k] = timedResponder{r, &inst.respond}
	}
	return out
}

func (inst *instruments) wrapSink(s dnsserver.Sink) dnsserver.Sink {
	if inst == nil {
		return s
	}
	return timedSink{s, &inst.appendLog}
}

// regTotals sums counters and merges histograms across the rounds'
// registries. Keys are "family{label=value,...}".
type regTotals struct {
	vals  map[string]float64
	hists map[string]telemetry.HistogramSnapshot
}

// totalsOf sums the registries of rounds.
func totalsOf(rounds []*roundResult) *regTotals {
	t := &regTotals{vals: map[string]float64{}, hists: map[string]telemetry.HistogramSnapshot{}}
	for _, r := range rounds {
		t.add(r.counters)
	}
	return t
}

func seriesKey(name string, labels []telemetry.Label) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name + "=" + l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func (t *regTotals) add(fams []telemetry.FamilySnapshot) {
	for _, f := range fams {
		for _, s := range f.Series {
			k := seriesKey(f.Name, s.Labels)
			if s.Histogram == nil {
				t.vals[k] += s.Value
				continue
			}
			prev, ok := t.hists[k]
			if !ok {
				t.hists[k] = *s.Histogram
				continue
			}
			if len(prev.Counts) == len(s.Histogram.Counts) {
				counts := append([]uint64(nil), prev.Counts...)
				for i, c := range s.Histogram.Counts {
					counts[i] += c
				}
				prev.Counts = counts
				prev.Count += s.Histogram.Count
				prev.Sum += s.Histogram.Sum
				t.hists[k] = prev
			}
		}
	}
}

// sum totals every series of family whose key contains all of match.
func (t *regTotals) sum(family string, match ...string) float64 {
	var v float64
	for k, x := range t.vals {
		if strings.HasPrefix(k, family+"{") && containsAll(k, match) {
			v += x
		}
	}
	return v
}

// hist merges every histogram series of family whose key contains all
// of match.
func (t *regTotals) hist(family string, match ...string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for k, h := range t.hists {
		if !strings.HasPrefix(k, family+"{") || !containsAll(k, match) {
			continue
		}
		if out.Counts == nil {
			out = h
			out.Counts = append([]uint64(nil), h.Counts...)
			continue
		}
		if len(out.Counts) == len(h.Counts) {
			for i, c := range h.Counts {
				out.Counts[i] += c
			}
			out.Count += h.Count
			out.Sum += h.Sum
		}
	}
	return out
}

func containsAll(s string, subs []string) bool {
	for _, x := range subs {
		if !strings.Contains(s, x) {
			return false
		}
	}
	return true
}

// counterValues derives the per-layer metrics that come from the
// program's own telemetry: t sums the registries of rounds that did ops
// operations in all.
func counterValues(vals map[string]float64, t *regTotals, ops int) {
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	queries := t.sum("resolver_queries_total")
	vals["resolver.lookups_per_op"] = perOp(queries)
	vals["resolver.cache_hit_frac"] = ratio(t.sum("resolver_cache_hits_total"), queries)
	vals["resolver.wire_per_lookup"] = ratio(t.sum("resolver_singleflight_leader_total"), queries)
	vals["resolver.singleflight_shared"] = t.sum("resolver_singleflight_shared_total")
	vals["resolver.retries"] = t.sum("resolver_retries_total")
	vals["resolver.timeouts"] = t.sum("resolver_timeouts_total")
	wire := t.hist("resolver_wire_seconds")
	vals["dns.client_wire_us_p50"] = wire.Quantile(0.5) * 1e6
	vals["dns.client_wire_us_p99"] = wire.Quantile(0.99) * 1e6

	vals["dnsserver.queries_per_op"] = perOp(t.sum("dnsserver_queries_total"))
	vals["dns.serve_us_mean"] = t.hist("dns_serve_duration_seconds").Mean() * 1e6
	vals["dns.tcp_frac"] = ratio(t.sum("dns_queries_total", "transport=tcp"), t.sum("dns_queries_total"))
	vals["dnsserver.log_dropped"] = t.sum("dnsserver_log_dropped_total")
	vals["wal.bytes_per_entry"] = ratio(t.sum("wal_bytes_appended_total", "name=querylog"), t.sum("wal_records_appended_total", "name=querylog"))

	tasks := t.sum("campaign_tasks")
	vals["campaign.attempts_per_task"] = ratio(t.sum("campaign_attempts_total"), tasks)
	vals["campaign.failed"] = t.sum("campaign_tasks_failed_total")
	vals["campaign.journal_write_us_mean"] = t.hist("campaign_journal_write_seconds").Mean() * 1e6
	vals["mtasim.spf_checks_per_op"] = perOp(t.sum("mtasim_spf_checks_total"))
	vals["mtasim.dkim_checks"] = t.sum("mtasim_dkim_checks_total")
	vals["mtasim.dmarc_checks"] = t.sum("mtasim_dmarc_checks_total")
}

// finish closes the tracer, writes the span stream out to spansOut,
// and derives the per-layer metrics that come from the decorators, the
// span stream and the tracer's own counters. plain and traced are the
// paired untraced and traced rounds: plain[i] and traced[i] ran the
// same input.
func (inst *instruments) finish(vals map[string]float64, plain, traced []*roundResult, spansOut string) error {
	if err := inst.tracer.Close(); err != nil {
		return err
	}
	if err := inst.spans.writeFile(spansOut); err != nil {
		return err
	}
	recs, err := inst.spans.records()
	if err != nil {
		return err
	}
	st := analyzeSpans(recs)
	ops := opsOf(traced)
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	// Span-derived values are estimated from the head-sampled subset.
	sampled := func(x float64) float64 { return x / inst.rate }

	for _, f := range selfFamilies {
		vals["self_us."+f] = perOp(sampled(float64(st.self[f].Microseconds())))
	}
	vals["campaign.task_us_p50"] = quantile(st.durs["campaign.task"], 0.5)
	vals["campaign.task_us_p99"] = quantile(st.durs["campaign.task"], 0.99)
	if _, ok := vals["spf.check_us_p50"]; !ok {
		vals["spf.check_us_p50"] = quantile(st.durs["spf.check"], 0.5)
		vals["spf.check_us_p99"] = quantile(st.durs["spf.check"], 0.99)
	}
	vals["resolver.lookup_us_mean"] = inst.lookup.meanUS()
	vals["dnsserver.respond_us_mean"] = inst.respond.meanUS()
	vals["dnsserver.log_append_us_mean"] = inst.appendLog.meanUS()

	tr := totalsOf(nil)
	tr.add(inst.tracerReg.Snapshot())
	vals["trace.dropped"] = tr.sum("trace_spans_dropped_total")
	vals["trace.overhead_frac"] = overheadFrac(plain, traced)
	for _, d := range perLayer {
		if _, ok := vals[d.Name]; !ok {
			vals[d.Name] = 0
		}
	}
	return nil
}

// overheadFrac is the tracing overhead: 1 minus the median, over the
// pairs, of the traced round's throughput as a share of the untraced
// round's on the same input.
func overheadFrac(plain, traced []*roundResult) float64 {
	var rel []float64
	for i := range min(len(plain), len(traced)) {
		p := ratio(float64(plain[i].ops), plain[i].timed.wall.Seconds())
		t := ratio(float64(traced[i].ops), traced[i].timed.wall.Seconds())
		rel = append(rel, ratio(t, p))
	}
	return 1 - median(rel)
}
