GO ?= go
FUZZTIME ?= 10s
BENCH_GOLDEN ?= BENCH_golden.json
BENCH_WALLCLOCK ?= BENCH_wallclock.txt
BENCH_GATE ?= BENCH_gate.json
WALLCLOCK_PATTERN ?= MapUnmap|NICReset|Rtranslate|^BenchmarkWalk$$|^BenchmarkIOTLB$$|^BenchmarkStage2Walk$$|IOVAChurn|CampaignCell|EngineReadU64|TrafficCell|TrafficTick|NetstackSend|OracleVerify|^BenchmarkAllocFrames$$|^BenchmarkNewSystem$$
WALLCLOCK_FLAGS ?= -count=2

COVER_FLOOR ?= 78.0

.PHONY: all build test tier1 vet fmt-check reach race ci ci-local cover equivalence fuzz fuzz-smoke bench-json bench-check experiments-check campaign-json bench-wallclock bench-wallclock-baseline alloc-check perfbench-check grid-full profile audit hotplug tenants traffic loc clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the repository's acceptance gate: everything compiles, every test
# passes.
tier1: build test

# vet also covers the benchmark module under perfbench/, which compiles
# against this module's packages, so an API change it depends on fails here.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# reach is the reachability gate alone (it also runs in `make test`): it
# fails on, and names with its file:line, every function or method under
# internal/ that no non-test code in internal/, cmd/, examples/ or
# perfbench/ refers to, outside the interface methods, the one-statement
# getters and the reasoned allowlist in reach_test.go; TestReachFixture
# checks the analysis on testdata/reach.
reach:
	$(GO) test -count=1 -run '^(TestInternalFuncsReached|TestReachFixture)$$' .

race:
	$(GO) test -race ./...

# ci is the full static + dynamic check: vet, then the whole suite under the
# race detector.
ci: build vet race

# ci-local mirrors every gate of .github/workflows/ci.yml in one invocation.
ci-local: build vet fmt-check reach test race equivalence fuzz-smoke bench-check experiments-check alloc-check cover audit hotplug tenants grid-full traffic perfbench-check

# equivalence runs the mode-equivalence property suite under the race
# detector: every protection mode must produce byte-identical Tx/Rx payloads
# and an identical protection-boundary mapping history for a seeded
# multi-queue workload, with zero audit-oracle violations.
equivalence:
	$(GO) test -race -count=1 ./internal/check/

# cover enforces the statement-coverage floor over internal/... (run with
# -short so the slow multi-worker determinism sweeps don't dominate; they are
# gated separately by `make race`). Refresh the floor deliberately, never
# down: COVER_FLOOR=76.0 make cover.
cover:
	@$(GO) test -short -coverprofile=coverage.out ./internal/... > /dev/null
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || { \
		echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# audit is the isolation gate: a quick audited chaos campaign (shadow
# translation oracle + hostile device + circuit breaker) built with the race
# detector. The command itself exits non-zero if any gap-free mode shows an
# isolation violation, while the deferred modes' stale windows are required
# to be visible (auditor liveness).
audit:
	$(GO) run -race ./cmd/riommu-faults \
		-rounds 40 -rates 0 -modes strict,riommu -chaos all > /dev/null

# hotplug is the interrupt gate: a quick hot-plug storm plus hostile-MSI
# campaign (interrupt shadow oracle + lifecycle state machine) built with the
# race detector. The command exits non-zero if a delivered interrupt is
# disowned by the shadow table, a removed device's completion is reaped, or a
# surprise removal fails to recover with a finite MTTR.
hotplug:
	$(GO) run -race ./cmd/riommu-faults \
		-rounds 24 -rates 0 -modes strict -intchaos all -hotplug all > /dev/null

# tenants is the cross-tenant gate: a quick hostile-tenant campaign (nested
# two-stage translation + per-tenant frame-ownership oracle + tenant-scoped
# circuit breakers) built with the race detector. The command exits non-zero
# if any attack crosses a tenant boundary, if the hostile tenant escapes
# quarantine, or if any victim tenant dips below 100% availability; the
# isolation gate also judges the guests' stage-1 audit verdicts.
tenants:
	$(GO) run -race ./cmd/riommu-faults \
		-rounds 30 -rates 0 -modes strict -tenants 3 -tenantchaos all > /dev/null

# traffic is the fleet-scale churn gate: a quick Figure S2 sweep (connection
# churn x all seven modes x kernel/bypass paths, every cell audited) plus an
# audited campaign churn axis, built with the race detector. Each exits
# non-zero if any cell records an isolation violation (the campaign through
# its isolation gate); the crossover property (rIOMMU and bypass >= 3x
# strict goodput at high churn) is pinned by TestFigS2Crossover and the
# committed golden.
traffic: build
	$(GO) run ./cmd/riommu-bench -quality quick -exp figS2 > /dev/null
	$(GO) run -race ./cmd/riommu-faults \
		-rounds 16 -rates 0 -modes strict,riommu -churn 200000 > /dev/null

# Short bounded runs of every engine fuzzer (the seed corpora also run as
# part of plain `go test`).
fuzz:
	$(GO) test ./internal/sim/ -run FuzzFaultDeterminism -fuzz FuzzFaultDeterminism -fuzztime 20s
	$(GO) test ./internal/intremap/ -run FuzzIRTEAllocator -fuzz FuzzIRTEAllocator -fuzztime 20s
	$(GO) test ./internal/tenant/ -run FuzzStage2Walk -fuzz FuzzStage2Walk -fuzztime 20s
	$(GO) test ./internal/traffic/ -run FuzzConnectionChurn -fuzz FuzzConnectionChurn -fuzztime 20s
	$(GO) test ./internal/iova/ -run FuzzLinuxAllocator -fuzz FuzzLinuxAllocator -fuzztime 20s
	$(GO) test ./internal/oamap/ -run FuzzMultimap -fuzz FuzzMultimap -fuzztime 20s

# fuzz-smoke is the CI-sized variant: long enough to execute the engines on
# generated inputs, short enough for every push.
fuzz-smoke:
	$(GO) test ./internal/sim/ -run FuzzFaultDeterminism -fuzz FuzzFaultDeterminism -fuzztime $(FUZZTIME)
	$(GO) test ./internal/intremap/ -run FuzzIRTEAllocator -fuzz FuzzIRTEAllocator -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tenant/ -run FuzzStage2Walk -fuzz FuzzStage2Walk -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traffic/ -run FuzzConnectionChurn -fuzz FuzzConnectionChurn -fuzztime $(FUZZTIME)
	$(GO) test ./internal/iova/ -run FuzzLinuxAllocator -fuzz FuzzLinuxAllocator -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oamap/ -run FuzzMultimap -fuzz FuzzMultimap -fuzztime $(FUZZTIME)

# bench-json regenerates the committed benchmark golden. Run it (and commit
# the result) whenever an intentional change moves any cell metric. The
# golden is generated with -parallel 1; bench-check verifies at the default
# worker count, so the diff doubles as a full-grid serial-vs-parallel
# equivalence check.
bench-json: build
	$(GO) run ./cmd/riommu-bench -quality quick -parallel 1 -json $(BENCH_GOLDEN) > /dev/null

# bench-check is the CI benchmark-regression gate: rerun the quick grid and
# fail on any byte of drift from the committed golden.
bench-check: build
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/riommu-bench -quality quick -json "$$tmp" > /dev/null || exit 1; \
	if ! diff -u $(BENCH_GOLDEN) "$$tmp"; then \
		echo ""; \
		echo "benchmark drift vs $(BENCH_GOLDEN)."; \
		echo "If intentional, refresh with: make bench-json && git add $(BENCH_GOLDEN)"; \
		exit 1; \
	fi; \
	echo "bench-check: no drift vs $(BENCH_GOLDEN)"

# experiments-check pins the rendered tables, which the golden above does
# not hold: it reruns every experiment at full quality and fails on any byte
# of drift from the fenced block under "## Full output" in EXPERIMENTS.md.
# Paste the new stdout into that block whenever an intentional change moves
# a rendered table.
experiments-check: build
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	awk '/^## Full output/ { f = 1; next } f && /^```$$/ { if (b) exit; b = 1; next } b' \
		EXPERIMENTS.md > "$$tmp/want"; \
	$(GO) run ./cmd/riommu-bench -quality full > "$$tmp/got" || exit 1; \
	if ! diff -u "$$tmp/want" "$$tmp/got"; then \
		echo ""; \
		echo "rendered output drift vs EXPERIMENTS.md's full output block."; \
		echo "If intentional, paste the new -quality full stdout into that block."; \
		exit 1; \
	fi; \
	echo "experiments-check: no drift vs EXPERIMENTS.md"

# campaign-json regenerates the committed campaign golden: the -json report
# and the rendered tables of one serial grid that holds every cell family.
# TestCampaignGolden (cmd/riommu-faults) reruns these flags at -parallel 1
# and at -parallel 4 and fails on any byte of drift from either file, so
# keep the two flag lists equal. Run it (and commit both files) whenever an
# intentional change moves a campaign metric or table.
CAMPAIGN_FLAGS = -seed 5 -rounds 24 -rates 0,0.01 -modes strict,riommu -cores 2 \
	-chaos all -intchaos all -hotplug all -tenants 3 -churn 2000 -parallel 1
campaign-json: build
	$(GO) run ./cmd/riommu-faults $(CAMPAIGN_FLAGS) -json BENCH_campaign.json > BENCH_campaign.txt

# alloc-check is the allocation-regression gate: the steady-state hot paths
# (IOTLB hit, rIOTLB hit, warm radix walk, IOVA recycle and churn, the audit
# oracle's verify and its unmap+map pair, the DMA engine's transfers,
# memory's typed accessors, one NIC Tx round, Send -> PumpTx -> ReapTx, one
# NIC Rx round, Deliver -> ReapRx, one reset of an audited strict NIC queue
# with a full Rx ring, and one NVMe read round, Read -> Poll) must stay at
# zero allocations per operation, and one period of
# traffic.(*Engine).Tick at the 232 allocations of the simulated-memory
# pages its ticks first write.
# Unlike the wall-clock deltas below this gate is machine-independent, so CI
# hard-fails on it.
alloc-check:
	$(GO) test -run TestHotPathAllocs -count=1 .

# perfbench-check runs the repository benchmark's own tests, then four short
# runs, and fails unless each run's result line reports every simulated
# output correct and an alloc_mb under the run's ceiling. Each figure below
# is three 5 s runs on a 2-vCPU VM.
#   - churn-audited (the map/unmap storm under the audit oracle), 30 MB. It
#     allocates 25.54 MB in every run.
#   - fault-grid (the audited campaign grid with every cell family),
#     100 MB. It allocates 89.7-91.4 MB, 94.8-99.3 MB while the tenant
#     frame ledgers were Go maps; it moves with collection timing, and
#     other runs read down to 87.4 MB.
#   - paper-quick (every experiment at Quick quality), 300 MB. It allocates
#     254.7-256.1 MB; it moves with collection timing, and other runs read
#     down to 245.7 MB.
#   - churn-raw (the churn worlds unaudited), 25 MB. It allocates 22.19 MB
#     in every run.
perfbench-check:
	cd perfbench && $(GO) test ./...
	@for run in churn-audited:30 fault-grid:100 paper-quick:300 churn-raw:25; do \
		w="$${run%%:*}"; max="$${run##*:}"; \
		last="$$(bash perfbench/run.sh --workload "$$w" --seconds 5 --trace 0 | tail -n 1)"; \
		echo "$$last"; \
		case "$$last" in *'"correct":true'*) ;; \
		*) echo "perfbench-check: $$w run not correct"; exit 1 ;; esac; \
		mb="$$(printf '%s\n' "$$last" | sed -n 's/.*"alloc_mb":{"value":\([0-9.eE+-]*\).*/\1/p')"; \
		awk -v mb="$$mb" -v max="$$max" 'BEGIN { exit (mb != "" && mb + 0 <= max + 0) ? 0 : 1 }' || { \
			echo "perfbench-check: $$w alloc_mb $$mb exceeds $$max"; exit 1; }; \
	done

# bench-wallclock runs the wall-clock suite (ns/op of the simulator itself,
# not virtual cycles) and compares against the committed baseline with the
# in-repo benchdiff tool. Most rows are informational — ns/op depends on the
# machine — but the benchmarks named in $(BENCH_GATE) carry per-benchmark
# regression floors; flipping "enforce" to true in that file turns them into
# a hard exit-1 gate. allocs/op increases always fail. WALLCLOCK_FLAGS sets
# the go test benchmark flags (CI runs -benchtime 1000x -count=1).
bench-wallclock: build
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run '^$$' -bench '$(WALLCLOCK_PATTERN)' $(WALLCLOCK_FLAGS) . | tee "$$tmp"; \
	echo ""; \
	$(GO) run ./cmd/benchdiff -gate $(BENCH_GATE) $(BENCH_WALLCLOCK) "$$tmp"

# bench-wallclock-baseline regenerates the committed wall-clock baseline. Run
# it on an otherwise idle machine and commit the result whenever an
# intentional change moves the hot-path timings (expect noise across
# machines; the deltas, not the absolute numbers, are what reviews compare).
bench-wallclock-baseline: build
	$(GO) test -run '^$$' -bench '$(WALLCLOCK_PATTERN)' $(WALLCLOCK_FLAGS) . | tee $(BENCH_WALLCLOCK)

# grid-full runs the full-quality fault-campaign grid — every axis the
# campaign knows (faults, hostile devices, hostile MSIs, hot-plug storms,
# multi-core scale-out, hostile tenants, connection churn) at full rounds —
# in one pass: it renders the report, writes grid-full.json and enforces
# every gate.
GRID_ROUNDS ?= 150
GRID_FLAGS = -rounds $(GRID_ROUNDS) -audit -chaos all -intchaos all -hotplug all \
	-cores 2,4 -tenants 3 -tenantchaos all -churn 2000,500000
grid-full: build
	$(GO) run ./cmd/riommu-faults $(GRID_FLAGS) -json grid-full.json

# loc prints the line count of the non-test Go source, leaving out the
# benchmark's own module (perfbench/), its build directory (.bench_build/)
# and .git/: the figure ROADMAP aim 2 ("the same bytes from less code")
# tracks.
loc:
	@find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

# profile runs the quick campaign grid under the CPU and heap profilers; feed
# the outputs to `go tool pprof`.
profile: build
	$(GO) run ./cmd/riommu-bench -quality quick -parallel 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof grid-full.json
