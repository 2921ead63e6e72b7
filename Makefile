# Tier-1 gate: everything a PR must keep green.
.PHONY: check vet fmt build test race fuzz chaos bench bench-all benchrot cover loc serve

check: ## vet + gofmt + build + race-enabled tests (bench module too) + fuzz smoke + chaos smoke + size gate (the tier-1 gate)
	go vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	go build ./...
	go test -race ./...
	cd bench && go vet ./... && go test -race ./...
	$(MAKE) fuzz
	$(MAKE) chaos
	$(MAKE) loc

vet:
	go vet ./...

fmt: ## fail if any file needs gofmt
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }

# Each target runs its seed corpus (testdata/fuzz/, regenerate with
# `go run ./tools/fuzzseed`) plus 10s of coverage-guided exploration.
FUZZTIME ?= 10s
fuzz: ## run every fuzz target for $(FUZZTIME) (default 10s each)
	go test -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/htmldoc
	go test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/depparse
	go test -run '^$$' -fuzz FuzzQuery -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzReport -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzBatch -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzAsk -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzLoadAdvisor -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz FuzzTopKParity -fuzztime $(FUZZTIME) ./internal/vsm
	go test -run '^$$' -fuzz FuzzNormalizeTerms -fuzztime $(FUZZTIME) ./internal/textproc

# The deterministic chaos/soak suite (DESIGN.md §12): every fault point armed,
# concurrent traffic under -race, recovery compared byte-for-byte against a
# fault-free control. -chaos.short keeps the smoke run fast; drop the flag
# for the full-volume soak.
CHAOS_FLAGS ?= -chaos.short
chaos: ## chaos suite under -race (short volume by default; CHAOS_FLAGS= for full)
	go test -race -count=1 -run 'TestServeChaosSoak' ./cmd/egeria $(CHAOS_FLAGS)

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Trajectory benchmarks: the fixed-size numbers tracked across PRs.
# Flags are pinned so results stay comparable between runs.
BENCH_TRACKED = BenchmarkServedRetrieval|BenchmarkQueryTerms|BenchmarkBuildAdvisor150|BenchmarkStageI_Serial|BenchmarkServiceQuery|BenchmarkColdBuild|BenchmarkWarmStart|BenchmarkIncrementalRebuild|BenchmarkRewriteRebuild
bench: ## cross-PR trajectory benchmarks (build pipeline, query normalization, serving, lifecycle)
	go test -run '^$$' -bench '$(BENCH_TRACKED)' -benchmem -count 1 . ./internal/lifecycle

bench-all: ## full sweep: per-table benchmarks + serving/index ablations
	go test -run '^$$' -bench . -benchmem ./...

benchrot: ## bench-rot gate: compile and run every benchmark once (1 iteration)
	go test -run '^$$' -bench . -benchtime=1x ./...

# Statement-coverage gate. COVER_BASELINE is the seed total measured when
# the gate was introduced; raise it when coverage durably improves, never
# lower it to make a PR pass. `make cover` writes coverage.out (the raw
# profile) and coverage.txt (the per-package table CI uploads).
COVER_BASELINE = 88.5
cover: ## per-package coverage table + total; fails below COVER_BASELINE
	go test -count=1 -coverprofile=coverage.out ./internal/... ./cmd/...
	go run ./tools/coverreport -profile coverage.out -baseline $(COVER_BASELINE) | tee coverage.txt

# Size gate. `make loc` writes loc.txt: non-test Go lines per package of the
# root module (bench/ is its own module), physical and code (neither blank
# nor comment-only), then the totals. It fails when the code-line total
# exceeds LOC_BASELINE; lower the baseline when a change deletes code.
LOC_BASELINE = 12997
loc: ## per-package non-test Go line counts; fails above LOC_BASELINE code lines
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print \
	| xargs awk 'FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); sub(/^\.\/?/, "", pkg); if (pkg == "") pkg = "." } \
		{ phys[pkg]++; t = $$0; gsub(/^[ \t]+|[ \t]+$$/, "", t) } \
		blk { if (t ~ /\*\//) blk = 0; next } \
		t == "" || t ~ /^\/\// { next } \
		t ~ /^\/\*/ { blk = (t !~ /\*\//); next } \
		{ code[pkg]++ } \
		END { for (p in phys) print p, phys[p], code[p] + 0 }' \
	| awk '{ P[$$1] += $$2; C[$$1] += $$3 } END { for (p in P) printf "%-28s %9d %9d\n", p, P[p], C[p] }' \
	| sort | awk -v base=$(LOC_BASELINE) 'BEGIN { printf "%-28s %9s %9s\n", "package", "physical", "code" } \
		{ print; p += $$2; c += $$3 } \
		END { printf "%-28s %9d %9d\n", "TOTAL", p, c; \
			if (c > base) { printf "loc gate: %d code lines > %d baseline\n", c, base; exit 1 } \
			printf "loc gate: %d code lines <= %d baseline\n", c, base }' > loc.txt; \
	status=$$?; cat loc.txt; exit $$status

serve: ## run the advising service with all three built-in guides
	go run ./cmd/egeria -corpus cuda -corpora opencl,xeon serve -addr :8080
