GO ?= go

.PHONY: build vet bench-vet bench-test fmt test race stress bench bench-baseline perfgate cover chaos figures-cmp importgate ladder-smoke evolve-smoke fuzz-smoke zoo-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The bench module is its own module, so root builds and tests never
# compile it; it calls Machine.Step, Config.Trace and the core, TLB and
# coherence constructors directly, so vet it against the tree.
bench-vet:
	$(GO) -C bench vet ./...

# The bench self-test runs every benchmark workload small, in both
# modes. It is the only test that drives figures-all's cell function,
# which builds and measures machines itself, on a pool that hands it a
# context carrying a front-end group.
bench-test:
	$(GO) -C bench test ./...

# The format gate fails if any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# The race gate exercises the parallel runner (TestConcurrentSubmit and
# the parallel-vs-serial equivalence tests) under the race detector.
race:
	$(GO) test -race ./...

# The stress gate repeats the concurrency-heavy packages, the service
# daemon and the runner pool, under the race detector, so an ordering
# bug that a single run passes four times in five still fails the gate.
stress:
	$(GO) test -race -count=20 ./internal/service/ ./internal/runner/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-baseline re-measures simulator throughput (whole runs and the
# steady-state batched measured phase) and rewrites BENCH_throughput.json;
# run it after deliberate hot-path changes to reset the perfgate floor.
bench-baseline:
	$(GO) run ./tools/perfgate -write

# The throughput gate re-runs the throughput benchmarks and fails if
# refs/s regressed more than 20% against BENCH_throughput.json
# (tools/perfgate).
perfgate:
	$(GO) run ./tools/perfgate

# The coverage gate fails if any package in coverage_floors.txt drops
# below its checked-in floor (tools/covergate).
cover:
	$(GO) run ./tools/covergate

# The chaos gate runs every fault-injection schedule against every cache
# design with the online invariant checker enabled; any violation or
# crashed cell fails the target (non-zero exit from seesaw-sweep).
# olio's five L1s share a heap, so the directory and the inclusive LLC
# face real sharing and invalidations under every schedule.
chaos:
	$(GO) run ./cmd/seesaw-sweep -chaos -workloads redis,mcf,olio -refs 6000 -fault-every 500

# The figures gate regenerates every figure and table on three
# workloads twice and requires byte-identical stdout: once on two
# workers, where each front-end group's pass answers its other cells,
# and once on one, where every cell runs alone and live. A change that
# moves both modes alike would pass that comparison, so the two-worker
# stdout must also hash to FIGURES_SHA256, the pinned digest of the
# tables; a change that means to alter a table updates the digest with
# it. A change that stops groups from sharing keeps every table, so the
# last stderr line of the two-worker run, the pool's sharing summary,
# must equal FIGURES_SOURCES: the pool groups a whole batch before any
# cell runs, so the line is the same on every run. The gate then does
# the same comparison for one warmed olio sweep, a batch of one large
# front-end group (a back end per design and geometry, each with three
# clock siblings) plus a PIPT group, whose pass lends back ends to the
# idle worker.
FIGURES_SHA256 = 5f55347769234a0954bd8cf99bfe87e435df37ccbfe1f1f830a0b8871a7beb49
FIGURES_SOURCES = seesaw-figures: 586 cells submitted to 2 workers: store 0, cached 248, fresh 338 (rung resumes 0, 0 warmup refs skipped); group passes 45, answered 245 cells

figures-cmp:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/seesaw-figures" ./cmd/seesaw-figures && \
	$(GO) build -o "$$tmp/seesaw-sweep" ./cmd/seesaw-sweep && \
	{ "$$tmp/seesaw-figures" -all -workloads redis,olio,nutch -parallel 2 > "$$tmp/shared.txt" 2> "$$tmp/shared.err" || \
		{ cat "$$tmp/shared.err" >&2; exit 1; }; } && \
	"$$tmp/seesaw-figures" -all -workloads redis,olio,nutch -parallel 1 > "$$tmp/live.txt" && \
	cmp "$$tmp/shared.txt" "$$tmp/live.txt" && \
	echo "$(FIGURES_SHA256)  $$tmp/shared.txt" | sha256sum -c --quiet && \
	{ test "$$(tail -n 1 "$$tmp/shared.err")" = "$(FIGURES_SOURCES)" || \
		{ echo "figures-cmp: sharing summary differs from FIGURES_SOURCES:"; tail -n 1 "$$tmp/shared.err"; exit 1; }; } && \
	"$$tmp/seesaw-sweep" -workloads olio -freqs 1.33,2.8,4 -warmup 20000 -parallel 2 > "$$tmp/sweep-shared.txt" && \
	"$$tmp/seesaw-sweep" -workloads olio -freqs 1.33,2.8,4 -warmup 20000 -parallel 1 > "$$tmp/sweep-live.txt" && \
	cmp "$$tmp/sweep-shared.txt" "$$tmp/sweep-live.txt"

# The import gate keeps cmd/ on the simulator's stable surfaces (sim,
# machine, runner, service, ...) instead of reaching into subsystem
# packages (tools/importgate).
importgate:
	$(GO) run ./tools/importgate

# The ladder gate drives the snapshot ladder's whole lifecycle (a sweep
# with -store always climbs its store's ladder): a laddered sweep is
# SIGKILLed mid-climb, restarted, and must resume from the surviving
# rungs and reproduce the storeless sweep's table byte for byte; a fresh
# sweep against the populated store must hit rungs for 100% of its
# warmups (tools/laddersmoke). That the storeless shared-warmup path
# matches cold runs is pinned by runner's TestSharedWarmupMatchesCold.
ladder-smoke:
	$(GO) run ./tools/laddersmoke

# The evolve gate drives seesaw-evolve as a process: two same-seed runs
# must be byte-identical, a SIGKILLed store-backed search must resume
# from its generation checkpoint to the identical front, and a
# warm-store rerun must perform zero fresh simulations
# (tools/evolvesmoke).
evolve-smoke:
	$(GO) run ./tools/evolvesmoke

# Short fuzz passes over the snapshot decoder (arbitrary bytes must
# yield typed errors, never panics, and any accepted snapshot must sit
# at or below its warmup boundary and run; seeded with a boundary rung
# and a mid-warmup rung), the restored buddy allocator (arbitrary free
# blocks must be rejected or yield a consistent allocator) and the
# restored page table (arbitrary radix states must be rejected or walk,
# count, clone and re-encode consistently). Minimizing an input is
# capped at 2000 runs. A rerun of a snapshot seed can report coverage
# its first run did not (gob, flate and fmt fill caches on first use),
# so the fuzzer queues the seed for minimization, and does so again
# each time, since a duplicate of a corpus entry never joins the
# coverage it is compared against. No deletion from a 6 KB snapshot
# keeps its declared length and checksum, so without the cap the
# minimizer tries every deletable range until its default 60 s limit,
# past the 10 s budget.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotCodec -fuzztime=10s -fuzzminimizetime=2000x ./internal/machine/
	$(GO) test -run='^$$' -fuzz=FuzzBuddyState -fuzztime=10s ./internal/physmem/
	$(GO) test -run='^$$' -fuzz=FuzzTableState -fuzztime=10s ./internal/pagetable/

# The zoo gate sweeps every registered cache design through the real
# service stack: seesaw-served boots on a random port, one cell per
# design is computed fresh through seesaw-client, an identical
# resubmission must be answered entirely from the store in under a
# second with byte-identical per-cell results, and a SIGTERM must drain
# the daemon cleanly (tools/zoosmoke). The design list comes from the
# registry, so a newly registered design is gated automatically.
zoo-smoke:
	$(GO) run ./tools/zoosmoke

verify: build vet bench-vet bench-test fmt test race stress cover chaos figures-cmp importgate ladder-smoke evolve-smoke fuzz-smoke zoo-smoke perfgate
