# Development entry points. The repository is pure Go with no external
# dependencies; every target needs only the go toolchain.

GO ?= go
FUZZTIME ?= 30s

# bench-diff gate knobs (see OBSERVABILITY.md "Bench-regression gate"):
#   BENCH_BASELINE   committed snapshot to compare against
#   BENCH_DIFF_MATCH benchmarks gated on every verify (keep them fast)
#   BENCH_DIFF_TOL   allowed ns/op regression in percent; raise on noisy
#                    shared machines
#   BENCH_DIFF_ALLOC_TOL  allowed allocs/op growth in percent of baseline.
#                    Proportional, so the zero-alloc query benchmarks still
#                    fail on any allocation; the slack only covers scheduler
#                    jitter in the parallel BenchmarkHinlintSelf
#   SKIP_BENCH_DIFF  set non-empty to skip the gate entirely
BENCH_BASELINE ?= BENCH_9.json
BENCH_DIFF_MATCH ?= BenchmarkDeanonymizeSingle|BenchmarkDeanonymizeSingleCSR|BenchmarkDeanonymizeInstrumented|BenchmarkPaperscale|BenchmarkServeRisk|BenchmarkHinlintSelf
BENCH_DIFF_PKGS ?= . ./internal/serve ./internal/lint
BENCH_DIFF_TOL ?= 15
BENCH_DIFF_ALLOC_TOL ?= 1
BENCH_VERIFY_OUT ?= /tmp/dehin-bench-verify.json

# serve-smoke knobs (see SERVICE.md "Load testing"):
#   SERVE_SMOKE_USERS    fixture graph size (small: this is a smoke, not
#                        the committed BENCH_7.json load run)
#   SERVE_SMOKE_SECONDS  burst duration
#   SERVE_SMOKE_TOL      allowed p99 regression in percent vs BENCH_7.json;
#                        wide because the smoke fixture is smaller and the
#                        burst shorter than the committed 30s/50k-user run
#   SKIP_SERVE_SMOKE     set non-empty to skip the smoke in verify
SERVE_SMOKE_USERS ?= 5000
SERVE_SMOKE_SECONDS ?= 5
SERVE_SMOKE_TOL ?= 300
SERVE_SMOKE_DIR ?= /tmp/dehin-serve-smoke

.PHONY: build test lint lint-mut verify race-par bench-diff fuzz bench benchdump serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs hinlint, the repository's custom analyzer suite (see LINT.md):
# the syntactic checks (determinism, nilsafe, logdiscipline, shardsafety,
# errdrop) and hotpath (the compiler's go build -gcflags=-m escapes inside
# //hin:hot functions) over every package. Resource lifecycles and
# goroutine lifetimes are checked at run time by the tests instead. Must
# run from the module root - package loading resolves imports through the
# go command.
lint:
	$(GO) run ./cmd/hinlint ./...

# lint-mut runs the mutation tests, the proof that the gates still have
# teeth. At the module root, seven lifecycle leaks (a snapshot reference
# leaked by three handlers, a missing Unpin, two leaked admission slots,
# and a goroutine Stop no longer joins) are each planted with
# go test -overlay, and the named serve or obs test must fail naming the
# leak. In internal/lint, copies of the real risk, dehin and baseline
# packages with the canonical regressions re-introduced (an out-of-shard
# write, a map-order float sum, and a Sprintf, a boxed value or a
# per-query make in deanonymizeCore) must each produce a file:line
# diagnostic, and the unmutated copies must lint clean.
lint-mut:
	$(GO) test -run TestMutation -count=1 . ./internal/lint

# verify is the CI gate: formatting (gofmt -l over every tracked Go file;
# git ls-files keeps build outputs such as .bench_build/ out), static
# checks (vet, then vet restricted to the mutex-copy and loop-capture
# analyzers so they stay on even if the default set changes, then
# hinlint), the race-detector run over the packages with
# real concurrency (the sharded generator, the parallel workbench/registry,
# the obs metrics registry, the span tracer, and the hinriskd daemon
# tests), the benchmark module's vet and tests (perfbench/ is its own
# module, so `go build ./...` at the root never compiles it; its replace
# directive builds it against this checkout offline), the paperscale smoke
# (the miniature generate->persist->load->attack->risk pipeline; skip with
# SKIP_PAPERSCALE=1), the hinriskd end-to-end smoke (a real daemon under a
# short hinload burst, p99 gated against BENCH_7.json; skip with
# SKIP_SERVE_SMOKE=1), and the bench-regression gate on the
# zero-allocation query benchmarks. Keep it green before committing.
verify:
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
		test -z "$$unformatted" || { echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...
	$(MAKE) lint
	$(GO) test -race ./internal/experiments ./internal/tqq ./internal/obs ./internal/obs/trace ./cmd/hinriskd
	$(MAKE) race-par
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .
ifeq ($(strip $(SKIP_PAPERSCALE)),)
	$(GO) test -run TestPaperscaleSmoke -count=1 .
endif
ifeq ($(strip $(SKIP_SERVE_SMOKE)),)
	$(MAKE) serve-smoke
endif
ifeq ($(strip $(SKIP_BENCH_DIFF)),)
	$(MAKE) bench-diff
endif

# race-par exercises the deterministic parallel-sweep paths under the race
# detector at GOMAXPROCS=2 - the smallest setting where workers actually
# interleave (single-core boxes otherwise collapse every pool to serial).
# The par primitives run in full; the heavier packages run only their
# worker-count determinism / byte-identity / parallel-path tests so the
# lane stays fast enough for every verify.
race-par:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/par
	GOMAXPROCS=2 $(GO) test -race -count=1 \
		-run 'Worker|Parallel|Sweep|Combine|Checksum|Reload|Concurrent' \
		./internal/risk ./internal/hin ./internal/dehin ./internal/serve

# serve-smoke is the end-to-end service gate: build the real binaries,
# generate a small deterministic fixture graph, run hinriskd under a short
# hinload burst (every request must succeed), and gate the measured p99
# against the committed BENCH_7.json load baseline via benchdiff. The
# burst is closed-loop at hinload's default concurrency, so it doubles as
# a quick sanity check that the admission-control path stays out of the
# read-only endpoints. The daemon runs with the full opt-in observability
# surface (flight recorder + runtime metrics), so the p99 gate measures
# the instrumented configuration; hinload -check-obs then scrapes
# /metrics and /debug/requests and asserts every serve_* and runtime_*
# family is present and the recorder saw the burst.
serve-smoke:
	mkdir -p $(SERVE_SMOKE_DIR)
	$(GO) build -o $(SERVE_SMOKE_DIR)/ ./cmd/hinriskd ./cmd/hinload ./cmd/tqqgen
	$(SERVE_SMOKE_DIR)/tqqgen -users $(SERVE_SMOKE_USERS) -seed 3 \
		-out $(SERVE_SMOKE_DIR)/fixture -graph-out $(SERVE_SMOKE_DIR)/fixture.hincsr
	$(SERVE_SMOKE_DIR)/hinload \
		-launch '$(SERVE_SMOKE_DIR)/hinriskd -graph $(SERVE_SMOKE_DIR)/fixture.hincsr -addr 127.0.0.1:0 -flight 64 -flight-slow 100ms -runtime-metrics 500ms' \
		-wait-ready 10s -check-obs \
		-duration $(SERVE_SMOKE_SECONDS)s -seed 1 -out $(SERVE_SMOKE_DIR)/report.json
	$(GO) run ./cmd/benchdiff -old BENCH_7.json -new $(SERVE_SMOKE_DIR)/report.json \
		-match 'BenchmarkLoad' -tol $(SERVE_SMOKE_TOL)

# bench-diff re-measures the gated benchmarks and fails on a >BENCH_DIFF_TOL%
# ns/op or any allocs/op regression against BENCH_BASELINE. The serve
# package rides along for BenchmarkServeRisk/-Instrumented, whose
# allocs/op part of the gate pins the instrumented serving path at zero
# allocations; the lint package rides along for BenchmarkHinlintSelf so
# analyzer slowdowns fail the same gate.
bench-diff:
	$(GO) run ./cmd/benchdump -bench '$(BENCH_DIFF_MATCH)' -pkg '$(BENCH_DIFF_PKGS)' -out $(BENCH_VERIFY_OUT)
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $(BENCH_VERIFY_OUT) \
		-match '$(BENCH_DIFF_MATCH)' -tol $(BENCH_DIFF_TOL) -alloc-tol $(BENCH_DIFF_ALLOC_TOL)

# fuzz runs each fuzz target for FUZZTIME (default 30s each). The committed
# seed corpora under testdata/fuzz also run as plain tests in `make test`.
fuzz:
	$(GO) test -fuzz FuzzProfileSpecValidate -fuzztime $(FUZZTIME) -run '^$$' ./internal/dehin
	$(GO) test -fuzz FuzzGenerateSmall -fuzztime $(FUZZTIME) -run '^$$' ./internal/tqq
	$(GO) test -fuzz FuzzAdjRowCodec -fuzztime $(FUZZTIME) -run '^$$' ./internal/hin
	$(GO) test -fuzz FuzzOpenCSRFile -fuzztime $(FUZZTIME) -run '^$$' ./internal/hin
	$(GO) test -fuzz FuzzWithOutRows -fuzztime $(FUZZTIME) -run '^$$' ./internal/hin
	$(GO) test -fuzz FuzzServeDehin -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve

bench:
	$(GO) test -run '^$$' -bench . -benchmem

# benchdump refreshes the committed benchmark snapshot (see BENCH_*.json).
benchdump:
	$(GO) run ./cmd/benchdump -pkg ./... -out BENCH_9.json
