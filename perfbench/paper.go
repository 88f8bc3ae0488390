package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/smtp"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

// The paper workload is cmd/experiment's pipeline through the public
// experiment API: NotifyEmail deliveries, then the NotifyMX and
// TwoWeekMX probe campaigns (CoreTests, journaled to a WAL with sync
// none as experiment -journal does), then the TwoWeekMX query log
// written out and re-read through the query-log codec and analysed.
// One round is one full pipeline, as `experiment -seed S` runs it.

// paperDomains is the domains per population. ROADMAP's starting size
// is 2000; at 2000 one pipeline takes ~18 s on two cores, too long to
// repeat inside one run, so the benchmark measures several pipelines
// of this size instead and reports their median.
const paperDomains = 300

// paperPopulations is how many populations a run rotates its rounds
// through. How long an op takes depends on the population's mix of
// validator behaviours (a serial validator of the lookup-limit policy
// waits out ~46 shaped responses); one population of this size moves
// ops_per_s by ~14% from seed to seed, and averaging three cuts that.
const paperPopulations = 3

// paperTimeScale is cmd/experiment's default protocol delay multiplier.
const paperTimeScale = 0.001

// paperInput is one pipeline's generated populations; generating them
// is input preparation, not set-up, and happens once per run.
type paperInput struct {
	seed   int64
	ne, tw *dataset.Population
}

// paperSeeds returns the pipeline seeds a run of seed rotates through.
func paperSeeds(seed int64) []int64 {
	out := make([]int64, paperPopulations)
	for j := range out {
		out[j] = seed + int64(j)*100003
	}
	return out
}

// paperSpecs mirrors cmd/experiment's population specs for seed and
// domains.
func paperSpecs(seed int64, domains int) (ne, tw dataset.Spec) {
	ne = dataset.NotifyEmailSpec(seed)
	tw = dataset.TwoWeekMXSpec(seed + 1)
	ne.NumDomains = domains
	ne.AlexaTop1M = domains / 9
	ne.AlexaTop1K = domains / 300
	tw.NumDomains = domains
	tw.LocalDomains = max(2, domains/800)
	return ne, tw
}

func generatePaperInput(seed int64, domains int) *paperInput {
	neSpec, twSpec := paperSpecs(seed, domains)
	return &paperInput{seed: seed, ne: dataset.Generate(neSpec), tw: dataset.Generate(twSpec)}
}

// paperRunner is the paper workload.
type paperRunner struct {
	ins     []*paperInput
	domains int
	workDir string
	workers int
	rounds  int // rounds run so far; names each round's files

	// first holds each pipeline seed's first measurands; every later
	// round of that seed must reproduce them. golden holds the
	// recorded values of the seeds that have them.
	first  map[int64][]byte
	golden map[int64]json.RawMessage

	phases     map[string][]float64 // untraced, unprofiled rounds' phase seconds
	ingest     []float64
	figure2    []experiment.Figure2Buckets
	outcomes   [][2]probeOutcomes
	logEntries []int
}

func newPaperRunner(cfg runConfig, workDir string) *paperRunner {
	domains := paperDomains
	if cfg.Scale > 0 {
		domains = cfg.Scale
	}
	p := &paperRunner{
		domains: domains,
		workDir: workDir,
		workers: runtime.NumCPU(),
		first:   map[int64][]byte{},
		golden:  map[int64]json.RawMessage{},
		phases:  map[string][]float64{},
	}
	recorded := loadGolden(cfg.Root)
	for _, seed := range paperSeeds(cfg.Seed) {
		p.ins = append(p.ins, generatePaperInput(seed, domains))
		if g, ok := recorded[goldenKey(domains, seed)]; ok {
			p.golden[seed] = g
		}
	}
	return p
}

// input returns input number i: runs rotate through the populations.
func (p *paperRunner) input(i int) *paperInput {
	return p.ins[i%len(p.ins)]
}

// paperMeasurands are the timing-independent results of one pipeline
// that the oracle asserts: Table 4/5/7 counts, partial validators, the
// §6.2 consistency rows, Figure 5 and the §7 behaviours.
type paperMeasurands struct {
	Table4         table4Counts                    `json:"table4"`
	Table7         experiment.AlexaBreakdown       `json:"table7"`
	Partial        [3]int                          `json:"partial_validators"`
	Table5         [2]table5Counts                 `json:"table5"`
	Consistency    experiment.Consistency          `json:"consistency"`
	Figure5        figure5Counts                   `json:"figure5"`
	SerialParallel experiment.SerialParallelResult `json:"serial_parallel"`
	Behaviors      *experiment.BehaviorResults     `json:"behaviors"`
}

type table4Counts struct {
	Domains, Delivered                    int
	SPFDomains, DKIMDomains, DMARCDomains int
	SPFMTAs, ContactedMTAs                int
	Combos                                map[string]int
}

type table5Counts struct {
	Domains, MTAs, SPFMTAs, SPFDomains int
	Deciles                            []experiment.DecileRow
}

// probeOutcomes are how the probes ended. They depend on timing (a
// greylisted or slow MTA can end a probe at another stage), so they
// are reported, not asserted.
type probeOutcomes struct {
	SpamRejected, BlacklistRejected  int
	InvalidRecipient, PostmasterUsed int
	ProbesCompleted, ProbesTotal     int
}

type figure5Counts struct {
	Tested, HaltedBeforeTen, RanAll, MaxQueries int
	QueriesPerMTA                               []int
}

func t5(a *experiment.ProbeAnalysis) table5Counts {
	return table5Counts{
		Domains: a.Domains, MTAs: a.MTAs, SPFMTAs: a.SPFMTAs, SPFDomains: a.SPFDomains,
		Deciles: a.Deciles,
	}
}

func outcomes(a *experiment.ProbeAnalysis) probeOutcomes {
	return probeOutcomes{
		SpamRejected: a.SpamRejected, BlacklistRejected: a.BlacklistRejected,
		InvalidRecipient: a.InvalidRecipient, PostmasterUsed: a.PostmasterUsed,
		ProbesCompleted: a.ProbesCompleted, ProbesTotal: a.ProbesTotal,
	}
}

// pipeline is one round's results.
type pipeline struct {
	measurands []byte
	ops        int
	failed     int
	setup      time.Duration
	timed      span
	phases     map[string]time.Duration
	ingestRate float64
	figure2    experiment.Figure2Buckets
	outcomes   [2]probeOutcomes
	logEntries int
	counters   []telemetry.FamilySnapshot
}

func (p *paperRunner) round(ctx context.Context, input int, inst *instruments, prof *profiler) (*roundResult, error) {
	in := p.input(input)
	p.rounds++
	pl, err := p.pipeline(ctx, inst, prof, in)
	if err != nil {
		return nil, err
	}
	rr := &roundResult{setup: pl.setup, timed: pl.timed, ops: pl.ops, failed: pl.failed, counters: pl.counters}
	switch {
	case inst != nil:
		p.ingest = append(p.ingest, pl.ingestRate)
	case prof == nil:
		for k, d := range pl.phases {
			p.phases[k] = append(p.phases[k], d.Seconds())
		}
	}
	p.figure2 = append(p.figure2, pl.figure2)
	p.outcomes = append(p.outcomes, pl.outcomes)
	p.logEntries = append(p.logEntries, pl.logEntries)
	golden, first := p.golden[in.seed], p.first[in.seed]
	switch {
	case golden != nil && !bytes.Equal(pl.measurands, golden):
		rr.problems = append(rr.problems, fmt.Sprintf("seed %d: measurands differ from the values recorded for it: %s", in.seed, diffJSON(golden, pl.measurands)))
	case first != nil && !bytes.Equal(pl.measurands, first):
		rr.problems = append(rr.problems, fmt.Sprintf("seed %d: measurands differ from its first round's: %s", in.seed, diffJSON(first, pl.measurands)))
	}
	if first == nil {
		p.first[in.seed] = pl.measurands
	}
	return rr, nil
}

// setupOnly builds and closes the three worlds of a round over input
// with no work in between: one more set-up sample.
func (p *paperRunner) setupOnly(_ context.Context, input int) (time.Duration, error) {
	in := p.input(input)
	seed := in.seed
	var total time.Duration
	for _, c := range []struct {
		pop *dataset.Population
		cfg experiment.WorldConfig
	}{
		{in.ne, experiment.WorldConfig{Seed: seed, Rates: experiment.NotifyRates()}},
		{in.ne, experiment.WorldConfig{Seed: seed + 7, Rates: experiment.NotifyRates(), ProfileDrift: 0.05}},
		{in.tw, experiment.WorldConfig{Seed: seed + 13, Rates: experiment.TwoWeekRates()}},
	} {
		c.cfg.TimeScale = paperTimeScale
		c.cfg.EnableIPv6DNS = true
		t0 := time.Now()
		w, err := experiment.BuildWorld(c.pop, c.cfg)
		if err != nil {
			return 0, err
		}
		total += time.Since(t0)
		w.Close()
	}
	return total, nil
}

// pipeline runs cmd/experiment's three phases once over in.
func (p *paperRunner) pipeline(ctx context.Context, inst *instruments, prof *profiler, in *paperInput) (*pipeline, error) {
	pl := &pipeline{phases: map[string]time.Duration{}}
	m := meter{prof: prof}
	seed := in.seed
	// Every world registers the program's telemetry, as
	// experiment -metrics-addr does, in a registry of its own that is
	// snapshotted before the world closes: a registry holds its world,
	// and a closed world must be collectable, as it is without one.
	var reg *telemetry.Registry
	build := func(pop *dataset.Population, cfg experiment.WorldConfig, label string) (*experiment.World, error) {
		cfg.TimeScale = paperTimeScale
		cfg.EnableIPv6DNS = true
		cfg.Tracer = tracerOf(inst)
		cfg.FleetMetrics = &mtasim.Metrics{}
		t0 := time.Now()
		w, err := experiment.BuildWorld(pop, cfg)
		pl.setup += time.Since(t0)
		if err == nil {
			reg = telemetry.NewRegistry()
			w.RegisterMetrics(reg, telemetry.L("experiment", label))
		}
		return w, err
	}
	snapshot := func() {
		pl.counters = append(pl.counters, reg.Snapshot()...)
		reg = nil
	}

	// NotifyEmail.
	neWorld, err := build(in.ne, experiment.WorldConfig{Seed: seed, Rates: experiment.NotifyRates()}, "notifyemail")
	if err != nil {
		return nil, err
	}
	m.begin()
	sp := phase(inst, "experiment.notifyemail")
	neRun := experiment.RunNotifyEmail(ctx, neWorld, p.workers)
	neAnalysis := experiment.AnalyzeNotifyEmail(neWorld, neRun)
	sp.End()
	pl.phases["notifyemail"] = m.end()
	snapshot()
	neWorld.Close()
	pl.ops += len(neRun.Deliveries)
	for _, d := range neRun.Deliveries {
		var smtpErr *smtp.Error
		if d.Err != nil && !errors.As(d.Err, &smtpErr) {
			pl.failed++
		}
	}

	// NotifyMX.
	nmxWorld, err := build(in.ne, experiment.WorldConfig{Seed: seed + 7, Rates: experiment.NotifyRates(), ProfileDrift: 0.05}, "notifymx")
	if err != nil {
		return nil, err
	}
	nmxRun, nmxTasks, nmxFailed, err := p.probe(ctx, nmxWorld, "notifymx", inst, reg, &m, pl)
	if err != nil {
		nmxWorld.Close()
		return nil, err
	}
	m.begin()
	nmxAnalysis := experiment.AnalyzeProbes(nmxWorld, nmxRun, false)
	consistency := experiment.Compare(nmxWorld, neAnalysis, nmxAnalysis)
	pl.phases["notifymx"] += m.end()
	snapshot()
	nmxWorld.Close()
	pl.ops += nmxTasks
	pl.failed += nmxFailed

	// TwoWeekMX.
	twWorld, err := build(in.tw, experiment.WorldConfig{Seed: seed + 13, Rates: experiment.TwoWeekRates()}, "twoweekmx")
	if err != nil {
		return nil, err
	}
	defer twWorld.Close()
	twRun, twTasks, twFailed, err := p.probe(ctx, twWorld, "twoweekmx", inst, reg, &m, pl)
	if err != nil {
		return nil, err
	}
	m.begin()
	twAnalysis := experiment.AnalyzeProbes(twWorld, twRun, true)
	pl.phases["twoweekmx"] += m.end()
	pl.ops += twTasks
	pl.failed += twFailed

	// The TwoWeekMX log through the codec, then the analyses.
	m.begin()
	sp = phase(inst, "experiment.analysis")
	entries, total, readDur, err := p.logRoundTrip(twWorld.Log)
	if err != nil {
		sp.End()
		return nil, err
	}
	ll := experiment.AnalyzeLookupLimitsEntries(entries)
	spr := experiment.AnalyzeSerialParallelEntries(entries)
	beh := experiment.AnalyzeBehaviorsEntries(entries)
	experiment.AnalyzeFingerprintEntries(entries)
	sp.End()
	pl.phases["analysis"] = m.end()
	pl.timed = m.total
	pl.ingestRate = ratio(float64(total), readDur.Seconds())
	pl.logEntries = total
	pl.figure2 = experiment.Bucketize(neAnalysis.TimingSamples)
	pl.outcomes = [2]probeOutcomes{outcomes(nmxAnalysis), outcomes(twAnalysis)}
	snapshot()

	qpm := append([]int(nil), ll.QueriesPerMTA...)
	sort.Ints(qpm)
	meas := paperMeasurands{
		Table4: table4Counts{
			Domains: neAnalysis.Domains, Delivered: neAnalysis.Delivered,
			SPFDomains: neAnalysis.SPFDomains, DKIMDomains: neAnalysis.DKIMDomains, DMARCDomains: neAnalysis.DMARCDomains,
			SPFMTAs: neAnalysis.SPFMTAs, ContactedMTAs: neAnalysis.ContactedMTAs, Combos: neAnalysis.Combos,
		},
		Table7:         neAnalysis.Alexa,
		Partial:        [3]int{neAnalysis.PartialDomains, neAnalysis.PartialSPFOnly, neAnalysis.PartialSPFOnlyDMARC},
		Table5:         [2]table5Counts{t5(nmxAnalysis), t5(twAnalysis)},
		Consistency:    consistency,
		Figure5:        figure5Counts{ll.Tested, ll.HaltedBeforeTen, ll.RanAll, ll.MaxQueries, qpm},
		SerialParallel: spr,
		Behaviors:      beh,
	}
	pl.measurands, err = json.Marshal(meas)
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// probe runs one journaled probe campaign over w's fleet, as
// cmd/experiment -journal does. Journal open and close are neither
// set-up nor timed.
func (p *paperRunner) probe(ctx context.Context, w *experiment.World, name string, inst *instruments, reg *telemetry.Registry, m *meter, pl *pipeline) (*experiment.ProbeRun, int, int, error) {
	path := filepath.Join(p.workDir, fmt.Sprintf("journal-%d.%s.jsonl", p.rounds, name))
	defer os.Remove(path)
	_, jnl, err := campaign.OpenJournal(path, campaign.JournalOptions{Sync: wal.SyncNone})
	if err != nil {
		return nil, 0, 0, err
	}
	pc := experiment.NewProbeCampaign(w, experiment.CoreTests, experiment.ProbeCampaignOpts{
		Workers: p.workers, Journal: jnl, Tracer: tracerOf(inst),
	})
	pc.Campaign.RegisterMetrics(reg, telemetry.L("experiment", name))
	m.begin()
	sp := phase(inst, "experiment."+name)
	run, err := pc.Run(ctx)
	sp.End()
	pl.phases[name] += m.end()
	cerr := jnl.Close()
	if err != nil {
		return nil, 0, 0, err
	}
	if cerr != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", cerr)
	}
	if jerr := pc.JournalError(); jerr != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", jerr)
	}
	snap := pc.Snapshot()
	return run, snap.Total, snap.Failed, nil
}

// logRoundTrip writes the query log out as cmd/experiment -log-out
// does and reads it back through the parallel codec, keeping the
// attributed entries as cmd/analyze does.
func (p *paperRunner) logRoundTrip(log *dnsserver.QueryLog) (attributed []dnsserver.LogEntry, total int, read time.Duration, err error) {
	path := filepath.Join(p.workDir, fmt.Sprintf("twoweekmx-%d.jsonl", p.rounds))
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := log.WriteJSON(f); err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	s, err := dnsserver.OpenLogStream(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer s.Close()
	err = dnsserver.ParForEachLogJSONOrdered(s, p.workers, func(e dnsserver.LogEntry) error {
		total++
		if e.MTAID != "" {
			attributed = append(attributed, e)
		}
		return nil
	})
	return attributed, total, time.Since(t0), err
}

func (p *paperRunner) finish(vals map[string]float64, detail map[string]any) {
	for _, k := range []string{"notifyemail", "notifymx", "twoweekmx", "analysis"} {
		vals["experiment."+k+"_s"] = median(p.phases[k])
	}
	vals["dnsserver.ingest_entries_per_s"] = median(p.ingest)
	detail["domains_per_population"] = p.domains
	detail["pipeline_seeds"] = paperSeeds(p.ins[0].seed)
	detail["golden_seeds"] = len(p.golden)
	// Reported, not asserted: these depend on timing.
	detail["figure2"] = p.figure2
	detail["probe_outcomes"] = p.outcomes
	detail["twoweekmx_log_entries"] = p.logEntries
}
