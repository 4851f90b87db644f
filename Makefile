# Build, verify, and benchmark targets for the LinBP reproduction.
#
#   make verify   - tier-1 gate: build + gofmt + vet + lint + full test
#                   suite + the race-detector pass over the concurrent
#                   packages + the crash-recovery fault-injection matrix
#                   under -race
#   make lint     - the lsbplint invariant analyzers (hot-path allocs,
#                   atomic fields, error taxonomy, durable format lock,
#                   RACE_PKGS completeness) + staticcheck/govulncheck
#                   when installed
#   make test-race - race-detector pass (the 32-goroutine shared-Solver
#                   stress, the partitioned kernel, the pools)
#   make cover    - per-package coverage with a floor: fails when any of
#                   internal/{kernel,order,sparse,core} drops below
#                   $(COVER_FLOOR)% statement coverage
#   make bench    - run every benchmark with -benchmem and archive the
#                   results as BENCH_results.json via cmd/benchjson
#   make bench-quick - the headline kernel benchmarks only (fast)
#   make bench-batch - the prepared-Solver serving benchmark: SolveBatch
#                   vs sequential one-shot Solve throughput rows into
#                   BENCH_results.json
#   make bench-reorder - the graph-layout comparison on a >=100k-node
#                   Kronecker graph (PR 2 wide/natural layout vs the
#                   compact-index + auto-reordered one), archived into
#                   BENCH_results.json
#   make bench-partition - the partition-parallel plane vs the PR 3
#                   baseline on the same large Kronecker graph
#                   (partitions 1..GOMAXPROCS + the span pool), archived
#                   into BENCH_results.json
#   make bench-update - the dynamic-plane benchmark on the same large
#                   Kronecker graph: Update round-trip (overlay commit +
#                   epoch swap + re-solve) warm vs cold, plus the
#                   belief-only and single-edge commit throughput,
#                   archived into BENCH_results.json
#   make bench-residual - the residual-schedule benchmark on the same
#                   large Kronecker graph: Update absorbing a <=0.1%
#                   edge delta under the rounds vs residual vs auto
#                   schedules, plus the delta-size scaling sweep,
#                   archived into BENCH_results.json
#   make bench-durable - the durable-plane benchmark: snapshot-load cold
#                   start (Open) vs full re-Prepare on the same large
#                   Kronecker graph, plus WAL append overhead per fsync
#                   policy, archived into BENCH_results.json
#   make bench-serve - the serving front-end benchmark: closed-loop
#                   Solve throughput through admission control and
#                   request coalescing, archived into BENCH_results.json
#   make crash    - the fault-injection crash-recovery matrix (torn
#                   appends, bit rot, lying fsyncs, interrupted
#                   checkpoints) under -race
#   make fuzz     - every fuzz target for a bounded $(FUZZTIME) each: the
#                   static, dynamic, and residual-schedule differential
#                   fuzzers and the copy-on-write row-block commit fuzzer
#   make loadtest - the serving-plane overload smoke: the closed-loop
#                   2x-saturation shed/recovery test, the WAL-broken
#                   degraded-mode flip, and the lsbpd daemon boot/drain
#                   round trip — under -race
#
# Tuning knobs (see EXPERIMENTS.md):
#   LSBP_BENCH_MAXGRAPH=N  largest Fig. 6a Kronecker graph to bench (1-9)
#   LSBP_BENCH_REORDER_POWER=P  Kronecker power of the layout/partition
#                   benchmarks (default 11 = 177,147 nodes)
#   LSBP_BENCH_RESIDUAL_EPS=E  skip bench-residual's one-time auto-εH
#                   spectral derivation (minutes at power 11) and use E
#                   (deterministic per power; 0.01497919... at 11)

GO ?= go
BENCHTIME ?= 1s
FUZZTIME ?= 30s
COVER_FLOOR ?= 70
COVER_PKGS = internal/kernel internal/order internal/sparse internal/core internal/difftest internal/durable internal/errs internal/serve cmd/benchjson
# RACE_PKGS must cover every concurrency-relevant ./internal/ package
# (directly or through module-internal imports); `make lint` fails if
# one is missing (internal/analysis race-pkgs check). Extra entries are
# allowed.
RACE_PKGS = ./internal/kernel/ ./internal/linbp/ ./internal/sparse/ ./internal/fabp/ \
	./internal/core/ ./internal/difftest/ ./internal/durable/ ./internal/bp/ \
	./internal/sbp/ ./internal/order/ ./internal/experiments/ ./internal/gen/ \
	./internal/learn/ ./internal/mooij/ ./internal/relalgo/ ./internal/spectral/ \
	./internal/serve/ ./internal/metrics/

.PHONY: verify test fmt vet build cover lint bench bench-quick bench-batch bench-reorder bench-partition bench-update bench-residual bench-durable race test-race crash fuzz

verify: build fmt vet lint test test-race crash

build:
	$(GO) build ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The invariant lint gate: the in-tree analyzer suite (hot-path
# allocation freedom, atomic-field discipline, error taxonomy, durable
# format locking, RACE_PKGS completeness), plus staticcheck and
# govulncheck when those tools are installed (they are not vendored, so
# offline builds skip them).
lint:
	$(GO) run ./cmd/lsbplint -makefile Makefile ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race $(RACE_PKGS)

# Kept as an alias for the pre-PR 4 target name.
race: test-race

# The durable-plane acceptance matrix: every injected fault (torn WAL
# append, bit rot in log or snapshot, dropped/failed fsyncs, power
# loss mid-checkpoint) must recover to a pinned update prefix or fail
# with a typed error — under the race detector, since recovery shares
# the epoch-swap machinery with concurrent serving.
crash:
	$(GO) test -race -run 'Crash|Durable|TestWAL|TestSnapshot|TestMemFS' ./internal/difftest/ ./internal/core/ ./internal/durable/

# Each fuzz target runs alone (go test -fuzz takes one target per
# package invocation); a failing input lands in the package's
# testdata/fuzz directory as a new regression seed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLinBPEquivalence$$' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzDynamicEquivalence$$' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzResidualSchedule$$' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzRowBlocksCommit$$' -fuzztime $(FUZZTIME) ./internal/sparse/

cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage output"; exit 1; fi; \
		echo "$$pkg: $$pct%"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p >= f) }' || \
			{ echo "FAIL: $$pkg coverage $$pct% below floor $(COVER_FLOOR)%"; exit 1; }; \
	done

bench:
	$(GO) test -bench . -benchmem -run '^$$' -benchtime $(BENCHTIME) ./... | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-quick:
	$(GO) test -bench 'Fig7aLinBP|EngineReuse' -benchmem -run '^$$' -benchtime 300ms . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-batch:
	$(GO) test -bench 'SolveBatch' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-reorder:
	$(GO) test -bench 'BenchmarkReorder' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-partition:
	$(GO) test -bench 'BenchmarkPartition' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-update:
	$(GO) test -bench 'BenchmarkUpdate' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-residual:
	$(GO) test -bench 'BenchmarkResidual' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-durable:
	$(GO) test -bench 'BenchmarkColdStart|BenchmarkWALAppend' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

bench-serve:
	$(GO) test -bench 'BenchmarkServe' -benchmem -run '^$$' -benchtime $(BENCHTIME) ./internal/serve/ | $(GO) run ./cmd/benchjson > BENCH_results.json
	@echo wrote BENCH_results.json

# The serving-plane acceptance smoke (see EXPERIMENTS.md "Overload
# behavior"): typed shedding at 2x saturation with bounded p99 and
# clean recovery, the degraded-mode flip on a broken WAL, and a full
# lsbpd boot -> serve -> drain round trip.
.PHONY: loadtest
loadtest:
	$(GO) test -race -count=1 -run 'TestClosedLoopOverload|TestDegradedModeOnWALBreak|TestEveryShedPathIsTyped|TestDaemon' ./internal/serve/ ./cmd/lsbpd/
