# Development entry points. `make check` is the gate: vet, build, the
# full test suite under the race detector, a replay of the fuzz seed
# corpora, and a one-iteration smoke pass over every benchmark. `make
# chaos` runs the seeded chaos suite on its own; `make bench` records
# the hot-path benchmarks to $(BENCH_OUT) for before/after comparison.

GO ?= go

# Seed for the chaos suite. Every chaos test logs the seed it ran
# with; reproduce a failure with `make chaos CHAOS_SEED=<seed>`.
CHAOS_SEED ?= 42

# Where `make bench` archives its parsed results.
BENCH_OUT ?= BENCH_12.json

# The baseline `make bench-diff` gates against.
BENCH_BASELINE ?= BENCH_9.json

# The benchmarks that guard the serving hot path's allocation budget,
# the log codec / analysis ingest throughput, the WAL append path
# under each sync policy, the resolver/bulk-SPF concurrency path, and
# the DNS client's pooled-socket UDP exchange.
HOT_BENCHES = BenchmarkServeHotPath|BenchmarkDNSMessagePackUnpack|BenchmarkSPFParse|BenchmarkQueryLogJSONRoundTrip|BenchmarkLogCodec|BenchmarkParForEachLogJSON|BenchmarkWALAppend|BenchmarkWALRecover|BenchmarkResolverParallel|BenchmarkSingleflightDedup|BenchmarkBulkSPF|BenchmarkClientExchangeUDP

.PHONY: check vet build test fuzz-seeds chaos crash bench bench-smoke bench-diff telemetry-alloc bulk-race trace-race

check: vet build test fuzz-seeds telemetry-alloc crash bulk-race trace-race bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Replay the checked-in fuzz seed corpora (no exploration; that's
# `go test -fuzz=<target>` run by hand).
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./...

# The chaos suite: seeded fault injection through netsim plus the
# serving-path robustness tests, all under the race detector.
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestChaos|TestPipeConn' -v ./internal/netsim/
	$(GO) test -race -count=1 \
		-run 'Panic|RateLimit|TCPServer|Retry|AsyncLog|Evict|Shed|LineTooLong|PolicyRejections' \
		./internal/dns/ ./internal/dnsserver/ ./internal/smtp/ ./internal/resolver/

# The crash-recovery suite: the byte-level kill/recover sweeps over
# internal/wal (every byte offset of a recorded schedule, bit flips,
# randomized kill cycles) and the process-level proof that SIGKILLing
# a real `campaign` run under chaos converges through -resume. Seeded
# like `make chaos`; reproduce with `make crash CHAOS_SEED=<seed>`.
crash:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestCrash|TestRandomizedKillAndReopen|FuzzWALRecover' ./internal/wal/
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=1 -timeout 300s \
		-run 'TestKillResumeConvergence' ./cmd/campaign/

# The instrument allocation pins: metric increments are on the DNS
# serving hot path, so Counter.Inc / Histogram.Observe / vec lookups
# must stay at zero allocations (alongside the codec pins, the
# resolver cache-hit pin and the DNS client's warm-exchange budget,
# which share the naming convention).
telemetry-alloc:
	$(GO) test -run 'Alloc' -count=1 \
		./internal/telemetry/ ./internal/dns/ ./internal/dnsserver/ ./internal/resolver/ \
		./internal/trace/

# The bulk-SPF pipeline under seeded netsim faults and the race
# detector: every input line must come back out exactly once while the
# resolver retries through packet loss and refused dials. Reproduce a
# failure with `make bulk-race CHAOS_SEED=<seed>`.
bulk-race:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestBulkPipelineChaos' ./internal/bulkspf/

# The tracing subsystem under the race detector: the full span
# lifecycle (pooling, exporter handoff, Close drain), the wire/wait
# attribution split, and a seeded-chaos bulk run at sample=1.0 with a
# leak-checked exporter. Reproduce with `make trace-race CHAOS_SEED=<seed>`.
trace-race:
	$(GO) test -race -count=1 ./internal/trace/
	$(GO) test -race -count=1 -run 'TestWireWait|TestWireAttribution' ./internal/resolver/
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestBulkPipelineChaosTraced' ./internal/bulkspf/

# One iteration of every benchmark: catches bit-rot in benchmark code
# without the cost of a measurement run.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Measure the hot-path benchmarks and archive the parsed numbers (plus
# the raw lines, for benchstat) to $(BENCH_OUT).
bench:
	$(GO) test -run NONE -bench '$(HOT_BENCHES)' -benchmem -count 1 \
		. ./internal/dns/ ./internal/dnsserver/ ./internal/wal/ ./internal/resolver/ | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Re-measure the pinned benchmarks and fail if any ns/op number
# regressed more than 20% against the committed baseline. Not part of
# `make check`: a measurement run wants a quiet machine, so run it by
# hand (or in a dedicated CI lane) before and after perf-sensitive
# changes.
bench-diff:
	$(GO) test -run NONE -bench '$(HOT_BENCHES)' -benchmem -count 1 \
		. ./internal/dns/ ./internal/dnsserver/ ./internal/wal/ ./internal/resolver/ | $(GO) run ./cmd/benchjson -diff $(BENCH_BASELINE)
