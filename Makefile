GO ?= go

.PHONY: all build test race vet lint analyze fmt-check bench bench-sim bench-eval bench-pair sim-smoke manifest-smoke sweep-smoke serve-smoke results-check conform-smoke fuzz-smoke overhead-smoke docs-check cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -count=2 reruns each package to surface order-dependent flakes; the
# sweep package is included for its kill/resume concurrency tests.
race:
	$(GO) test -race -count=2 -timeout=10m ./internal/pepa ./internal/linalg ./internal/ctmc ./internal/core ./internal/sim ./internal/obsv ./internal/sweep ./internal/conform

vet:
	$(GO) vet ./...

# Project static analysis (docs/LINT.md): pepalint over the shipped
# PEPA models, then the govet-suite analyzers (floatcmp, metricname,
# spanpair, lockorder, goroleak, ctxflow, sentinelerr) over every
# package — tools and _test.go files included.
lint:
	$(GO) run ./tools/pepalint models/*.pepa
	$(GO) run ./tools/govet-suite ./...

# Same suite, machine-readable: a pepatags/analysis/v1 report on
# stdout and a run manifest with the analysis section, validated by
# manifestcheck. CI uploads both when the suite finds anything.
analyze:
	$(GO) run ./tools/govet-suite -json -manifest analyze-manifest.json ./... > analyze.json
	$(GO) run ./tools/manifestcheck analyze-manifest.json

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run the derivation/solver benchmarks (serial vs parallel, the solver
# cascade on the 4,331-state exponential and 9,801-state H2 chains:
# BenchmarkSteadyState/{tagexp-4331,tagh2-9801}, and generator assembly
# on the pepa-derive chains: BenchmarkGenerator, and cold skeleton
# derivation of three TAG shapes: BenchmarkSkeleton) and write a
# machine-readable summary to BENCH_derive.json.
bench:
	$(GO) test -run=NONE -bench='BenchmarkDerive|BenchmarkSteady|BenchmarkGenerator|BenchmarkSkeleton' -benchmem . | tee BENCH_derive.txt
	$(GO) run ./tools/benchjson -o BENCH_derive.json < BENCH_derive.txt

# Run the event-core benchmarks (calendar queue vs the retained heap
# reference, clusters of 100/1000/4000 nodes) and write the events/s
# figures to BENCH_sim.json (docs/SIMULATION.md).
bench-sim:
	$(GO) test -run=NONE -bench='BenchmarkSim' -benchmem ./internal/sim | tee BENCH_sim.txt
	$(GO) run ./tools/benchjson -o BENCH_sim.json < BENCH_sim.txt

# Run the evaluation benchmarks — Figures 8 and 11 at ShortParams, one
# Figure-8 opt-t search through sweep.Run, the cached Figure-8 grid, and
# one warm Krylov solve of the Figure-8 shape (iterations/op gives the
# cost of one BiCGSTAB iteration) — five times each with allocations,
# and write BENCH_eval.json.
# BASE=file adds the same benchmarks' output from another commit as
# the "baseline". Each result's "procs" is the GOMAXPROCS it ran at.
bench-eval:
	$(GO) test -run=NONE -bench='^Benchmark(Figure8|Figure11)$$' -count 5 -benchmem . | tee BENCH_eval.txt
	$(GO) test -run=NONE -bench='^Benchmark(OptTSearch|Figure8GridCached|KrylovSolve)$$' -count 5 -benchmem ./internal/sweep | tee -a BENCH_eval.txt
	$(GO) run ./tools/benchjson $(if $(BASE),-baseline $(BASE)) -o BENCH_eval.json < BENCH_eval.txt

# Paired benchmark run against another commit: build `go test -c`
# binaries of package PKG at revision BASE (extracted with git archive
# into a temporary directory) and in the working tree, run them in
# turn one count at a time, COUNT times, each from its own package
# directory, and write OUT through tools/benchjson with BASE's results
# under "baseline". Alternating keeps drift of the host between the two
# sides out of the comparison. The bench text is kept beside OUT: the
# tree's as OUT with .txt for .json, BASE's as OUT with -base.txt.
#   make bench-pair BASE=HEAD~1 PKG=./internal/sim BENCH=BenchmarkSim COUNT=5 OUT=BENCH_sim.json
COUNT ?= 5
OUT ?= BENCH_pair.json
bench-pair:
	@test -n "$(BASE)" -a -n "$(PKG)" -a -n "$(BENCH)" || \
		{ echo "usage: make bench-pair BASE=<rev> PKG=<package dir> BENCH=<regexp> [COUNT=5] [OUT=BENCH_pair.json]"; exit 2; }
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) test -c -o "$$tmp/base.test" $(PKG)); \
	$(GO) test -c -o "$$tmp/head.test" $(PKG); \
	: > $(OUT:.json=-base.txt); : > $(OUT:.json=.txt); \
	for i in $$(seq $(COUNT)); do \
		(cd "$$tmp/src/$(PKG)" && "$$tmp/base.test" -test.run=NONE -test.bench='$(BENCH)' -test.benchmem -test.timeout=30m) | tee -a $(OUT:.json=-base.txt); \
		(cd $(PKG) && "$$tmp/head.test" -test.run=NONE -test.bench='$(BENCH)' -test.benchmem -test.timeout=30m) | tee -a $(OUT:.json=.txt); \
	done; \
	$(GO) run ./tools/benchjson -baseline $(OUT:.json=-base.txt) -o $(OUT) < $(OUT:.json=.txt)

# End-to-end replication smoke: generate a bounded-Pareto trace, replay
# it across 4 parallel replications on each event core, and require the
# two manifests to agree on pooled results (the cores are bit-identical
# by construction; the differential battery in internal/conform is the
# exhaustive check). Manifests validated against the schema.
sim-smoke:
	$(GO) run ./cmd/tagssim -gen-trace sim-smoke.jsonl -gen-jobs 5000 > /dev/null
	$(GO) run ./cmd/tagssim -trace sim-smoke.jsonl -policy pod2 -replications 4 -rep-workers 2 -manifest sim-cal.json > sim-cal.txt
	$(GO) run ./cmd/tagssim -trace sim-smoke.jsonl -policy pod2 -replications 4 -rep-workers 4 -core heap -manifest sim-heap.json > sim-heap.txt
	grep -E 'completed|response|slowdown|loss' sim-cal.txt > sim-cal-stats.txt
	grep -E 'completed|response|slowdown|loss' sim-heap.txt > sim-heap-stats.txt
	cmp sim-cal-stats.txt sim-heap-stats.txt
	$(GO) run ./tools/manifestcheck sim-cal.json sim-heap.json

# Emit one manifest per CLI and validate all of them against the
# run-manifest schema — including an intentionally failed run, whose
# manifest must carry the error and the flight-recorder tail.
manifest-smoke:
	$(GO) run ./cmd/pepa -tag -manifest pepa-run.json -events pepa-run.jsonl
	$(GO) run ./cmd/pepa -tag -lint -json -manifest pepa-lint.json > /dev/null
	$(GO) run ./cmd/tagseval -short -fig figure6 -manifest tagseval-run.json > /dev/null
	$(GO) run ./cmd/tagssim -jobs 20000 -stats -manifest tagssim-run.json > /dev/null 2>&1
	$(GO) run ./cmd/tagssim -jobs 20000 -replications 4 -rep-workers 2 -policy sq -manifest tagssim-reps.json > /dev/null
	! $(GO) run ./cmd/pepa -tag -max-states 3 -manifest pepa-fail.json 2> /dev/null
	$(GO) run ./tools/manifestcheck pepa-run.json pepa-lint.json tagseval-run.json tagssim-run.json tagssim-reps.json pepa-fail.json

# Timing-sensitive gate: full telemetry (registry + events + progress)
# must stay within 2% of the bare derivation kernel (best-of-7 + 2ms
# slack; see overhead_test.go).
overhead-smoke:
	PEPATAGS_OVERHEAD_SMOKE=1 $(GO) test -run TestTelemetryOverhead -v .

# Differential-testing smoke: 200 seeded scenarios through the full
# oracle battery, manifest validated. Zero violations expected; on
# failure a shrunken repro lands in conform-repros/ (see docs/TESTING.md).
conform-smoke:
	$(GO) run ./tools/conform -seed 1 -n 200 -repro-dir conform-repros -manifest conform-run.json
	$(GO) run ./tools/manifestcheck conform-run.json

# Short fuzz pass over the PEPA front end. The committed corpus under
# internal/pepa/testdata/fuzz is always replayed by plain `make test`;
# this additionally explores new inputs for 30s per target.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/pepa
	$(GO) test -run=NONE -fuzz=FuzzLint -fuzztime=30s ./internal/pepa

# Per-package coverage summary plus the repo-wide total that CI gates on.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Run the 3-point smoke sweep twice — once clean, once interrupted and
# resumed (journal truncated to the header, one row and a partial
# line) — and require byte-identical journals plus a valid manifest
# with a sweep record.
sweep-smoke:
	$(GO) run ./cmd/tagseval -sweep models/sweep_smoke.json -journal sweep-clean.jsonl -manifest sweep-run.json > /dev/null
	head -n 2 sweep-clean.jsonl > sweep-resume.jsonl
	printf '{"seq":1,"ser' >> sweep-resume.jsonl
	$(GO) run ./cmd/tagseval -sweep models/sweep_smoke.json -journal sweep-resume.jsonl -resume > /dev/null
	cmp sweep-clean.jsonl sweep-resume.jsonl
	$(GO) run ./tools/manifestcheck sweep-run.json

# End-to-end daemon smoke: build the real pepad binary, start it on
# an ephemeral port, submit the Figure 8 sweep spec over HTTP, poll
# the job to completion, drain with SIGTERM and validate the run
# manifest (docs/PEPAD.md).
serve-smoke:
	$(GO) run ./tools/servesmoke

# Regenerate every figure and table with the experiment runner and
# require byte-identical output to the committed results_full.txt
# (about 70 seconds on 2 vCPUs). diff -u fails on any difference and
# shows which digits moved.
results-check:
	$(GO) run ./cmd/tagseval -all > results-check.txt
	diff -u results_full.txt results-check.txt

# Dead-link check over the documentation set (tools/doccheck): every
# relative link and heading anchor in the markdown must resolve.
docs-check:
	$(GO) run ./tools/doccheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md docs/*.md

clean:
	rm -f BENCH_derive.txt BENCH_derive.json BENCH_sim.txt BENCH_sim.json BENCH_eval.txt BENCH_eval.json \
		BENCH_pair.json BENCH_pair.txt BENCH_*-base.txt \
		pepa-run.json pepa-run.jsonl pepa-lint.json pepa-fail.json \
		tagseval-run.json tagssim-run.json tagssim-reps.json \
		sim-smoke.jsonl sim-cal.json sim-heap.json sim-cal.txt sim-heap.txt \
		sim-cal-stats.txt sim-heap-stats.txt \
		sweep-clean.jsonl sweep-resume.jsonl sweep-run.json conform-run.json coverage.out \
		analyze.json analyze-manifest.json results-check.txt
	rm -rf conform-repros
