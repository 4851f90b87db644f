# Build, verify, and benchmark targets for the LinBP reproduction.
#
#   make verify   - tier-1 gate: build + gofmt + vet + lint + full test
#                   suite + the race-detector pass over the concurrent
#                   packages + the crash-recovery fault-injection matrix
#                   under -race + vet and tests of the servebench module
#   make lint     - the lsbplint invariant analyzers (hot-path allocs,
#                   atomic fields, error taxonomy, durable format lock,
#                   RACE_PKGS completeness) + staticcheck/govulncheck
#                   when installed
#   make test-race - race-detector pass (the 32-goroutine shared-Solver
#                   stress, the partitioned kernel, the pools)
#   make cover    - per-package coverage with a floor: fails when any of
#                   internal/{kernel,order,sparse,core} drops below
#                   $(COVER_FLOOR)% statement coverage
#   make bench    - run every benchmark with -benchmem and merge the
#                   results into the BENCH_results.json ledger via
#                   cmd/benchjson (every bench-* target merges the same
#                   way: entries are keyed by benchmark, GOMAXPROCS,
#                   commit and CPU, so no run overwrites another's)
#   make bench-quick - the headline kernel benchmarks only (fast)
#   make bench-batch - the prepared-Solver serving benchmark: SolveBatch
#                   vs sequential one-shot Solve throughput rows into
#                   BENCH_results.json
#   make bench-reorder - the graph-layout benchmark on a >=100k-node
#                   Kronecker graph (natural order vs the auto-chosen
#                   reordering, one SolveBatch row), archived into
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
#                   Kronecker graph, WAL append overhead per fsync
#                   policy, and the live heap a durable serving stack
#                   keeps resident, archived into BENCH_results.json
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
#   make servebench-ab WORKLOAD=W - PAIRS alternating parent/working-tree
#                   pairs of 30-s servebench runs (PARENT, default HEAD,
#                   exported under .bench_build/ab/; pair i uses seed
#                   SEED+i), summarized per end-to-end metric as
#                   quartiles, median ratio and the change's wins
#   make loc      - the non-test Go line count of the main module (the
#                   ROADMAP's Subtract bar)
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
# BENCH_COMMIT labels the merged entries with the code measured: HEAD's
# hash, then "+" and a hash of the Go changes not yet committed
# (tracked diffs and untracked .go files) when there are any, so two
# different working trees never share a label. Outside a git checkout
# it is empty and benchjson refuses to merge: pass BENCH_COMMIT=LABEL.
BENCH_COMMIT ?= $(shell h=$$(git rev-parse --short=12 HEAD 2>/dev/null) || exit 0; \
	if [ -n "$$(git status --porcelain -- '*.go' go.mod)" ]; then \
	h=$$h+$$( { git diff HEAD -- '*.go' go.mod; git ls-files -o --exclude-standard -- '*.go' | xargs -r tail -v -n +1; } | sha256sum | cut -c1-12); \
	fi; echo $$h)
BENCHJSON = $(GO) run ./cmd/benchjson -commit '$(BENCH_COMMIT)' BENCH_results.json
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
	./internal/serve/ ./internal/metrics/ ./internal/graph/

.PHONY: verify test fmt vet build cover lint bench bench-quick bench-batch bench-reorder bench-partition bench-update bench-residual bench-durable race test-race crash fuzz servebench-test servebench-ab loc

verify: build fmt vet lint test test-race crash servebench-test

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

# servebench is its own module, so ./... above skips it; its tests are
# short power-6 runs that catch a core or serve API change breaking the
# benchmark before the benchmark itself runs.
servebench-test:
	cd servebench && $(GO) vet . && $(GO) test .

# Paired A/B of the serving benchmark (choosing-metrics §8): PAIRS
# alternating runs of PARENT's tree and the working tree on WORKLOAD.
# Everything it builds and writes stays under .bench_build/.
PARENT ?= HEAD
PAIRS ?= 10
SEED ?= 1
servebench-ab:
	@test -n "$(WORKLOAD)" || { echo "usage: make servebench-ab WORKLOAD=ingest|mixed|query [PARENT=rev] [PAIRS=n] [SEED=s]"; exit 2; }
	GOCACHE=$(CURDIR)/.bench_build/gocache $(GO) run ./cmd/servebenchab -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# Non-test Go lines of the main module: tracked .go files without
# *_test.go, servebench/ (its own module) and testdata/ fixtures.
# Only tracked files count, so nothing under .bench_build/ does; `git
# add` a new file before counting it.
loc:
	@git ls-files -z -- '*.go' ':!:*_test.go' ':!:servebench/**' ':!:**/testdata/**' | xargs -0 cat | wc -l

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
	$(GO) test -bench . -benchmem -run '^$$' -benchtime $(BENCHTIME) ./... | $(BENCHJSON)

bench-quick:
	$(GO) test -bench 'Fig7aLinBP|EngineReuse' -benchmem -run '^$$' -benchtime 300ms . | $(BENCHJSON)

bench-batch:
	$(GO) test -bench 'SolveBatch' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(BENCHJSON)

bench-reorder:
	$(GO) test -bench 'BenchmarkReorder' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(BENCHJSON)

bench-partition:
	$(GO) test -bench 'BenchmarkPartition' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(BENCHJSON)

bench-update:
	$(GO) test -bench 'BenchmarkUpdate' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(BENCHJSON)

bench-residual:
	$(GO) test -bench 'BenchmarkResidual' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(BENCHJSON)

bench-durable:
	$(GO) test -bench 'BenchmarkColdStart|BenchmarkWALAppend|BenchmarkServeStackLiveHeap' -benchmem -run '^$$' -benchtime $(BENCHTIME) . | $(BENCHJSON)

bench-serve:
	$(GO) test -bench 'BenchmarkServe' -benchmem -run '^$$' -benchtime $(BENCHTIME) ./internal/serve/ | $(BENCHJSON)

# The serving-plane acceptance smoke (see EXPERIMENTS.md "Overload
# behavior"): typed shedding at 2x saturation with bounded p99 and
# clean recovery, the degraded-mode flip on a broken WAL, and a full
# lsbpd boot -> serve -> drain round trip.
.PHONY: loadtest
loadtest:
	$(GO) test -race -count=1 -run 'TestClosedLoopOverload|TestDegradedModeOnWALBreak|TestEveryShedPathIsTyped|TestDaemon' ./internal/serve/ ./cmd/lsbpd/
